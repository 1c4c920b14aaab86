// Code generated by cmd/genbitpack. DO NOT EDIT.

package bitpack

import "math/bits"

// unpack32x0 expands 32 zero-bit values: all zeros.
func unpack32x0(dst *[32]uint32, src []uint32) {
	*dst = [32]uint32{}
	_ = src
}

// unpack32x1 expands 32 1-bit values from src[0:1] into dst[0:32].
func unpack32x1(dst *[32]uint32, src []uint32) {
	_ = src[0]
	dst[0] = src[0] & 0x1
	dst[1] = (src[0] >> 1) & 0x1
	dst[2] = (src[0] >> 2) & 0x1
	dst[3] = (src[0] >> 3) & 0x1
	dst[4] = (src[0] >> 4) & 0x1
	dst[5] = (src[0] >> 5) & 0x1
	dst[6] = (src[0] >> 6) & 0x1
	dst[7] = (src[0] >> 7) & 0x1
	dst[8] = (src[0] >> 8) & 0x1
	dst[9] = (src[0] >> 9) & 0x1
	dst[10] = (src[0] >> 10) & 0x1
	dst[11] = (src[0] >> 11) & 0x1
	dst[12] = (src[0] >> 12) & 0x1
	dst[13] = (src[0] >> 13) & 0x1
	dst[14] = (src[0] >> 14) & 0x1
	dst[15] = (src[0] >> 15) & 0x1
	dst[16] = (src[0] >> 16) & 0x1
	dst[17] = (src[0] >> 17) & 0x1
	dst[18] = (src[0] >> 18) & 0x1
	dst[19] = (src[0] >> 19) & 0x1
	dst[20] = (src[0] >> 20) & 0x1
	dst[21] = (src[0] >> 21) & 0x1
	dst[22] = (src[0] >> 22) & 0x1
	dst[23] = (src[0] >> 23) & 0x1
	dst[24] = (src[0] >> 24) & 0x1
	dst[25] = (src[0] >> 25) & 0x1
	dst[26] = (src[0] >> 26) & 0x1
	dst[27] = (src[0] >> 27) & 0x1
	dst[28] = (src[0] >> 28) & 0x1
	dst[29] = (src[0] >> 29) & 0x1
	dst[30] = (src[0] >> 30) & 0x1
	dst[31] = src[0] >> 31
}

// unpack32x2 expands 32 2-bit values from src[0:2] into dst[0:32].
func unpack32x2(dst *[32]uint32, src []uint32) {
	_ = src[1]
	dst[0] = src[0] & 0x3
	dst[1] = (src[0] >> 2) & 0x3
	dst[2] = (src[0] >> 4) & 0x3
	dst[3] = (src[0] >> 6) & 0x3
	dst[4] = (src[0] >> 8) & 0x3
	dst[5] = (src[0] >> 10) & 0x3
	dst[6] = (src[0] >> 12) & 0x3
	dst[7] = (src[0] >> 14) & 0x3
	dst[8] = (src[0] >> 16) & 0x3
	dst[9] = (src[0] >> 18) & 0x3
	dst[10] = (src[0] >> 20) & 0x3
	dst[11] = (src[0] >> 22) & 0x3
	dst[12] = (src[0] >> 24) & 0x3
	dst[13] = (src[0] >> 26) & 0x3
	dst[14] = (src[0] >> 28) & 0x3
	dst[15] = src[0] >> 30
	dst[16] = src[1] & 0x3
	dst[17] = (src[1] >> 2) & 0x3
	dst[18] = (src[1] >> 4) & 0x3
	dst[19] = (src[1] >> 6) & 0x3
	dst[20] = (src[1] >> 8) & 0x3
	dst[21] = (src[1] >> 10) & 0x3
	dst[22] = (src[1] >> 12) & 0x3
	dst[23] = (src[1] >> 14) & 0x3
	dst[24] = (src[1] >> 16) & 0x3
	dst[25] = (src[1] >> 18) & 0x3
	dst[26] = (src[1] >> 20) & 0x3
	dst[27] = (src[1] >> 22) & 0x3
	dst[28] = (src[1] >> 24) & 0x3
	dst[29] = (src[1] >> 26) & 0x3
	dst[30] = (src[1] >> 28) & 0x3
	dst[31] = src[1] >> 30
}

// unpack32x3 expands 32 3-bit values from src[0:3] into dst[0:32].
func unpack32x3(dst *[32]uint32, src []uint32) {
	_ = src[2]
	dst[0] = src[0] & 0x7
	dst[1] = (src[0] >> 3) & 0x7
	dst[2] = (src[0] >> 6) & 0x7
	dst[3] = (src[0] >> 9) & 0x7
	dst[4] = (src[0] >> 12) & 0x7
	dst[5] = (src[0] >> 15) & 0x7
	dst[6] = (src[0] >> 18) & 0x7
	dst[7] = (src[0] >> 21) & 0x7
	dst[8] = (src[0] >> 24) & 0x7
	dst[9] = (src[0] >> 27) & 0x7
	dst[10] = (src[0]>>30 | src[1]<<2) & 0x7
	dst[11] = (src[1] >> 1) & 0x7
	dst[12] = (src[1] >> 4) & 0x7
	dst[13] = (src[1] >> 7) & 0x7
	dst[14] = (src[1] >> 10) & 0x7
	dst[15] = (src[1] >> 13) & 0x7
	dst[16] = (src[1] >> 16) & 0x7
	dst[17] = (src[1] >> 19) & 0x7
	dst[18] = (src[1] >> 22) & 0x7
	dst[19] = (src[1] >> 25) & 0x7
	dst[20] = (src[1] >> 28) & 0x7
	dst[21] = (src[1]>>31 | src[2]<<1) & 0x7
	dst[22] = (src[2] >> 2) & 0x7
	dst[23] = (src[2] >> 5) & 0x7
	dst[24] = (src[2] >> 8) & 0x7
	dst[25] = (src[2] >> 11) & 0x7
	dst[26] = (src[2] >> 14) & 0x7
	dst[27] = (src[2] >> 17) & 0x7
	dst[28] = (src[2] >> 20) & 0x7
	dst[29] = (src[2] >> 23) & 0x7
	dst[30] = (src[2] >> 26) & 0x7
	dst[31] = src[2] >> 29
}

// unpack32x4 expands 32 4-bit values from src[0:4] into dst[0:32].
func unpack32x4(dst *[32]uint32, src []uint32) {
	_ = src[3]
	dst[0] = src[0] & 0xF
	dst[1] = (src[0] >> 4) & 0xF
	dst[2] = (src[0] >> 8) & 0xF
	dst[3] = (src[0] >> 12) & 0xF
	dst[4] = (src[0] >> 16) & 0xF
	dst[5] = (src[0] >> 20) & 0xF
	dst[6] = (src[0] >> 24) & 0xF
	dst[7] = src[0] >> 28
	dst[8] = src[1] & 0xF
	dst[9] = (src[1] >> 4) & 0xF
	dst[10] = (src[1] >> 8) & 0xF
	dst[11] = (src[1] >> 12) & 0xF
	dst[12] = (src[1] >> 16) & 0xF
	dst[13] = (src[1] >> 20) & 0xF
	dst[14] = (src[1] >> 24) & 0xF
	dst[15] = src[1] >> 28
	dst[16] = src[2] & 0xF
	dst[17] = (src[2] >> 4) & 0xF
	dst[18] = (src[2] >> 8) & 0xF
	dst[19] = (src[2] >> 12) & 0xF
	dst[20] = (src[2] >> 16) & 0xF
	dst[21] = (src[2] >> 20) & 0xF
	dst[22] = (src[2] >> 24) & 0xF
	dst[23] = src[2] >> 28
	dst[24] = src[3] & 0xF
	dst[25] = (src[3] >> 4) & 0xF
	dst[26] = (src[3] >> 8) & 0xF
	dst[27] = (src[3] >> 12) & 0xF
	dst[28] = (src[3] >> 16) & 0xF
	dst[29] = (src[3] >> 20) & 0xF
	dst[30] = (src[3] >> 24) & 0xF
	dst[31] = src[3] >> 28
}

// unpack32x5 expands 32 5-bit values from src[0:5] into dst[0:32].
func unpack32x5(dst *[32]uint32, src []uint32) {
	_ = src[4]
	dst[0] = src[0] & 0x1F
	dst[1] = (src[0] >> 5) & 0x1F
	dst[2] = (src[0] >> 10) & 0x1F
	dst[3] = (src[0] >> 15) & 0x1F
	dst[4] = (src[0] >> 20) & 0x1F
	dst[5] = (src[0] >> 25) & 0x1F
	dst[6] = (src[0]>>30 | src[1]<<2) & 0x1F
	dst[7] = (src[1] >> 3) & 0x1F
	dst[8] = (src[1] >> 8) & 0x1F
	dst[9] = (src[1] >> 13) & 0x1F
	dst[10] = (src[1] >> 18) & 0x1F
	dst[11] = (src[1] >> 23) & 0x1F
	dst[12] = (src[1]>>28 | src[2]<<4) & 0x1F
	dst[13] = (src[2] >> 1) & 0x1F
	dst[14] = (src[2] >> 6) & 0x1F
	dst[15] = (src[2] >> 11) & 0x1F
	dst[16] = (src[2] >> 16) & 0x1F
	dst[17] = (src[2] >> 21) & 0x1F
	dst[18] = (src[2] >> 26) & 0x1F
	dst[19] = (src[2]>>31 | src[3]<<1) & 0x1F
	dst[20] = (src[3] >> 4) & 0x1F
	dst[21] = (src[3] >> 9) & 0x1F
	dst[22] = (src[3] >> 14) & 0x1F
	dst[23] = (src[3] >> 19) & 0x1F
	dst[24] = (src[3] >> 24) & 0x1F
	dst[25] = (src[3]>>29 | src[4]<<3) & 0x1F
	dst[26] = (src[4] >> 2) & 0x1F
	dst[27] = (src[4] >> 7) & 0x1F
	dst[28] = (src[4] >> 12) & 0x1F
	dst[29] = (src[4] >> 17) & 0x1F
	dst[30] = (src[4] >> 22) & 0x1F
	dst[31] = src[4] >> 27
}

// unpack32x6 expands 32 6-bit values from src[0:6] into dst[0:32].
func unpack32x6(dst *[32]uint32, src []uint32) {
	_ = src[5]
	dst[0] = src[0] & 0x3F
	dst[1] = (src[0] >> 6) & 0x3F
	dst[2] = (src[0] >> 12) & 0x3F
	dst[3] = (src[0] >> 18) & 0x3F
	dst[4] = (src[0] >> 24) & 0x3F
	dst[5] = (src[0]>>30 | src[1]<<2) & 0x3F
	dst[6] = (src[1] >> 4) & 0x3F
	dst[7] = (src[1] >> 10) & 0x3F
	dst[8] = (src[1] >> 16) & 0x3F
	dst[9] = (src[1] >> 22) & 0x3F
	dst[10] = (src[1]>>28 | src[2]<<4) & 0x3F
	dst[11] = (src[2] >> 2) & 0x3F
	dst[12] = (src[2] >> 8) & 0x3F
	dst[13] = (src[2] >> 14) & 0x3F
	dst[14] = (src[2] >> 20) & 0x3F
	dst[15] = src[2] >> 26
	dst[16] = src[3] & 0x3F
	dst[17] = (src[3] >> 6) & 0x3F
	dst[18] = (src[3] >> 12) & 0x3F
	dst[19] = (src[3] >> 18) & 0x3F
	dst[20] = (src[3] >> 24) & 0x3F
	dst[21] = (src[3]>>30 | src[4]<<2) & 0x3F
	dst[22] = (src[4] >> 4) & 0x3F
	dst[23] = (src[4] >> 10) & 0x3F
	dst[24] = (src[4] >> 16) & 0x3F
	dst[25] = (src[4] >> 22) & 0x3F
	dst[26] = (src[4]>>28 | src[5]<<4) & 0x3F
	dst[27] = (src[5] >> 2) & 0x3F
	dst[28] = (src[5] >> 8) & 0x3F
	dst[29] = (src[5] >> 14) & 0x3F
	dst[30] = (src[5] >> 20) & 0x3F
	dst[31] = src[5] >> 26
}

// unpack32x7 expands 32 7-bit values from src[0:7] into dst[0:32].
func unpack32x7(dst *[32]uint32, src []uint32) {
	_ = src[6]
	dst[0] = src[0] & 0x7F
	dst[1] = (src[0] >> 7) & 0x7F
	dst[2] = (src[0] >> 14) & 0x7F
	dst[3] = (src[0] >> 21) & 0x7F
	dst[4] = (src[0]>>28 | src[1]<<4) & 0x7F
	dst[5] = (src[1] >> 3) & 0x7F
	dst[6] = (src[1] >> 10) & 0x7F
	dst[7] = (src[1] >> 17) & 0x7F
	dst[8] = (src[1] >> 24) & 0x7F
	dst[9] = (src[1]>>31 | src[2]<<1) & 0x7F
	dst[10] = (src[2] >> 6) & 0x7F
	dst[11] = (src[2] >> 13) & 0x7F
	dst[12] = (src[2] >> 20) & 0x7F
	dst[13] = (src[2]>>27 | src[3]<<5) & 0x7F
	dst[14] = (src[3] >> 2) & 0x7F
	dst[15] = (src[3] >> 9) & 0x7F
	dst[16] = (src[3] >> 16) & 0x7F
	dst[17] = (src[3] >> 23) & 0x7F
	dst[18] = (src[3]>>30 | src[4]<<2) & 0x7F
	dst[19] = (src[4] >> 5) & 0x7F
	dst[20] = (src[4] >> 12) & 0x7F
	dst[21] = (src[4] >> 19) & 0x7F
	dst[22] = (src[4]>>26 | src[5]<<6) & 0x7F
	dst[23] = (src[5] >> 1) & 0x7F
	dst[24] = (src[5] >> 8) & 0x7F
	dst[25] = (src[5] >> 15) & 0x7F
	dst[26] = (src[5] >> 22) & 0x7F
	dst[27] = (src[5]>>29 | src[6]<<3) & 0x7F
	dst[28] = (src[6] >> 4) & 0x7F
	dst[29] = (src[6] >> 11) & 0x7F
	dst[30] = (src[6] >> 18) & 0x7F
	dst[31] = src[6] >> 25
}

// unpack32x8 expands 32 8-bit values from src[0:8] into dst[0:32].
func unpack32x8(dst *[32]uint32, src []uint32) {
	_ = src[7]
	dst[0] = src[0] & 0xFF
	dst[1] = (src[0] >> 8) & 0xFF
	dst[2] = (src[0] >> 16) & 0xFF
	dst[3] = src[0] >> 24
	dst[4] = src[1] & 0xFF
	dst[5] = (src[1] >> 8) & 0xFF
	dst[6] = (src[1] >> 16) & 0xFF
	dst[7] = src[1] >> 24
	dst[8] = src[2] & 0xFF
	dst[9] = (src[2] >> 8) & 0xFF
	dst[10] = (src[2] >> 16) & 0xFF
	dst[11] = src[2] >> 24
	dst[12] = src[3] & 0xFF
	dst[13] = (src[3] >> 8) & 0xFF
	dst[14] = (src[3] >> 16) & 0xFF
	dst[15] = src[3] >> 24
	dst[16] = src[4] & 0xFF
	dst[17] = (src[4] >> 8) & 0xFF
	dst[18] = (src[4] >> 16) & 0xFF
	dst[19] = src[4] >> 24
	dst[20] = src[5] & 0xFF
	dst[21] = (src[5] >> 8) & 0xFF
	dst[22] = (src[5] >> 16) & 0xFF
	dst[23] = src[5] >> 24
	dst[24] = src[6] & 0xFF
	dst[25] = (src[6] >> 8) & 0xFF
	dst[26] = (src[6] >> 16) & 0xFF
	dst[27] = src[6] >> 24
	dst[28] = src[7] & 0xFF
	dst[29] = (src[7] >> 8) & 0xFF
	dst[30] = (src[7] >> 16) & 0xFF
	dst[31] = src[7] >> 24
}

// unpack32x9 expands 32 9-bit values from src[0:9] into dst[0:32].
func unpack32x9(dst *[32]uint32, src []uint32) {
	_ = src[8]
	dst[0] = src[0] & 0x1FF
	dst[1] = (src[0] >> 9) & 0x1FF
	dst[2] = (src[0] >> 18) & 0x1FF
	dst[3] = (src[0]>>27 | src[1]<<5) & 0x1FF
	dst[4] = (src[1] >> 4) & 0x1FF
	dst[5] = (src[1] >> 13) & 0x1FF
	dst[6] = (src[1] >> 22) & 0x1FF
	dst[7] = (src[1]>>31 | src[2]<<1) & 0x1FF
	dst[8] = (src[2] >> 8) & 0x1FF
	dst[9] = (src[2] >> 17) & 0x1FF
	dst[10] = (src[2]>>26 | src[3]<<6) & 0x1FF
	dst[11] = (src[3] >> 3) & 0x1FF
	dst[12] = (src[3] >> 12) & 0x1FF
	dst[13] = (src[3] >> 21) & 0x1FF
	dst[14] = (src[3]>>30 | src[4]<<2) & 0x1FF
	dst[15] = (src[4] >> 7) & 0x1FF
	dst[16] = (src[4] >> 16) & 0x1FF
	dst[17] = (src[4]>>25 | src[5]<<7) & 0x1FF
	dst[18] = (src[5] >> 2) & 0x1FF
	dst[19] = (src[5] >> 11) & 0x1FF
	dst[20] = (src[5] >> 20) & 0x1FF
	dst[21] = (src[5]>>29 | src[6]<<3) & 0x1FF
	dst[22] = (src[6] >> 6) & 0x1FF
	dst[23] = (src[6] >> 15) & 0x1FF
	dst[24] = (src[6]>>24 | src[7]<<8) & 0x1FF
	dst[25] = (src[7] >> 1) & 0x1FF
	dst[26] = (src[7] >> 10) & 0x1FF
	dst[27] = (src[7] >> 19) & 0x1FF
	dst[28] = (src[7]>>28 | src[8]<<4) & 0x1FF
	dst[29] = (src[8] >> 5) & 0x1FF
	dst[30] = (src[8] >> 14) & 0x1FF
	dst[31] = src[8] >> 23
}

// unpack32x10 expands 32 10-bit values from src[0:10] into dst[0:32].
func unpack32x10(dst *[32]uint32, src []uint32) {
	_ = src[9]
	dst[0] = src[0] & 0x3FF
	dst[1] = (src[0] >> 10) & 0x3FF
	dst[2] = (src[0] >> 20) & 0x3FF
	dst[3] = (src[0]>>30 | src[1]<<2) & 0x3FF
	dst[4] = (src[1] >> 8) & 0x3FF
	dst[5] = (src[1] >> 18) & 0x3FF
	dst[6] = (src[1]>>28 | src[2]<<4) & 0x3FF
	dst[7] = (src[2] >> 6) & 0x3FF
	dst[8] = (src[2] >> 16) & 0x3FF
	dst[9] = (src[2]>>26 | src[3]<<6) & 0x3FF
	dst[10] = (src[3] >> 4) & 0x3FF
	dst[11] = (src[3] >> 14) & 0x3FF
	dst[12] = (src[3]>>24 | src[4]<<8) & 0x3FF
	dst[13] = (src[4] >> 2) & 0x3FF
	dst[14] = (src[4] >> 12) & 0x3FF
	dst[15] = src[4] >> 22
	dst[16] = src[5] & 0x3FF
	dst[17] = (src[5] >> 10) & 0x3FF
	dst[18] = (src[5] >> 20) & 0x3FF
	dst[19] = (src[5]>>30 | src[6]<<2) & 0x3FF
	dst[20] = (src[6] >> 8) & 0x3FF
	dst[21] = (src[6] >> 18) & 0x3FF
	dst[22] = (src[6]>>28 | src[7]<<4) & 0x3FF
	dst[23] = (src[7] >> 6) & 0x3FF
	dst[24] = (src[7] >> 16) & 0x3FF
	dst[25] = (src[7]>>26 | src[8]<<6) & 0x3FF
	dst[26] = (src[8] >> 4) & 0x3FF
	dst[27] = (src[8] >> 14) & 0x3FF
	dst[28] = (src[8]>>24 | src[9]<<8) & 0x3FF
	dst[29] = (src[9] >> 2) & 0x3FF
	dst[30] = (src[9] >> 12) & 0x3FF
	dst[31] = src[9] >> 22
}

// unpack32x11 expands 32 11-bit values from src[0:11] into dst[0:32].
func unpack32x11(dst *[32]uint32, src []uint32) {
	_ = src[10]
	dst[0] = src[0] & 0x7FF
	dst[1] = (src[0] >> 11) & 0x7FF
	dst[2] = (src[0]>>22 | src[1]<<10) & 0x7FF
	dst[3] = (src[1] >> 1) & 0x7FF
	dst[4] = (src[1] >> 12) & 0x7FF
	dst[5] = (src[1]>>23 | src[2]<<9) & 0x7FF
	dst[6] = (src[2] >> 2) & 0x7FF
	dst[7] = (src[2] >> 13) & 0x7FF
	dst[8] = (src[2]>>24 | src[3]<<8) & 0x7FF
	dst[9] = (src[3] >> 3) & 0x7FF
	dst[10] = (src[3] >> 14) & 0x7FF
	dst[11] = (src[3]>>25 | src[4]<<7) & 0x7FF
	dst[12] = (src[4] >> 4) & 0x7FF
	dst[13] = (src[4] >> 15) & 0x7FF
	dst[14] = (src[4]>>26 | src[5]<<6) & 0x7FF
	dst[15] = (src[5] >> 5) & 0x7FF
	dst[16] = (src[5] >> 16) & 0x7FF
	dst[17] = (src[5]>>27 | src[6]<<5) & 0x7FF
	dst[18] = (src[6] >> 6) & 0x7FF
	dst[19] = (src[6] >> 17) & 0x7FF
	dst[20] = (src[6]>>28 | src[7]<<4) & 0x7FF
	dst[21] = (src[7] >> 7) & 0x7FF
	dst[22] = (src[7] >> 18) & 0x7FF
	dst[23] = (src[7]>>29 | src[8]<<3) & 0x7FF
	dst[24] = (src[8] >> 8) & 0x7FF
	dst[25] = (src[8] >> 19) & 0x7FF
	dst[26] = (src[8]>>30 | src[9]<<2) & 0x7FF
	dst[27] = (src[9] >> 9) & 0x7FF
	dst[28] = (src[9] >> 20) & 0x7FF
	dst[29] = (src[9]>>31 | src[10]<<1) & 0x7FF
	dst[30] = (src[10] >> 10) & 0x7FF
	dst[31] = src[10] >> 21
}

// unpack32x12 expands 32 12-bit values from src[0:12] into dst[0:32].
func unpack32x12(dst *[32]uint32, src []uint32) {
	_ = src[11]
	dst[0] = src[0] & 0xFFF
	dst[1] = (src[0] >> 12) & 0xFFF
	dst[2] = (src[0]>>24 | src[1]<<8) & 0xFFF
	dst[3] = (src[1] >> 4) & 0xFFF
	dst[4] = (src[1] >> 16) & 0xFFF
	dst[5] = (src[1]>>28 | src[2]<<4) & 0xFFF
	dst[6] = (src[2] >> 8) & 0xFFF
	dst[7] = src[2] >> 20
	dst[8] = src[3] & 0xFFF
	dst[9] = (src[3] >> 12) & 0xFFF
	dst[10] = (src[3]>>24 | src[4]<<8) & 0xFFF
	dst[11] = (src[4] >> 4) & 0xFFF
	dst[12] = (src[4] >> 16) & 0xFFF
	dst[13] = (src[4]>>28 | src[5]<<4) & 0xFFF
	dst[14] = (src[5] >> 8) & 0xFFF
	dst[15] = src[5] >> 20
	dst[16] = src[6] & 0xFFF
	dst[17] = (src[6] >> 12) & 0xFFF
	dst[18] = (src[6]>>24 | src[7]<<8) & 0xFFF
	dst[19] = (src[7] >> 4) & 0xFFF
	dst[20] = (src[7] >> 16) & 0xFFF
	dst[21] = (src[7]>>28 | src[8]<<4) & 0xFFF
	dst[22] = (src[8] >> 8) & 0xFFF
	dst[23] = src[8] >> 20
	dst[24] = src[9] & 0xFFF
	dst[25] = (src[9] >> 12) & 0xFFF
	dst[26] = (src[9]>>24 | src[10]<<8) & 0xFFF
	dst[27] = (src[10] >> 4) & 0xFFF
	dst[28] = (src[10] >> 16) & 0xFFF
	dst[29] = (src[10]>>28 | src[11]<<4) & 0xFFF
	dst[30] = (src[11] >> 8) & 0xFFF
	dst[31] = src[11] >> 20
}

// unpack32x13 expands 32 13-bit values from src[0:13] into dst[0:32].
func unpack32x13(dst *[32]uint32, src []uint32) {
	_ = src[12]
	dst[0] = src[0] & 0x1FFF
	dst[1] = (src[0] >> 13) & 0x1FFF
	dst[2] = (src[0]>>26 | src[1]<<6) & 0x1FFF
	dst[3] = (src[1] >> 7) & 0x1FFF
	dst[4] = (src[1]>>20 | src[2]<<12) & 0x1FFF
	dst[5] = (src[2] >> 1) & 0x1FFF
	dst[6] = (src[2] >> 14) & 0x1FFF
	dst[7] = (src[2]>>27 | src[3]<<5) & 0x1FFF
	dst[8] = (src[3] >> 8) & 0x1FFF
	dst[9] = (src[3]>>21 | src[4]<<11) & 0x1FFF
	dst[10] = (src[4] >> 2) & 0x1FFF
	dst[11] = (src[4] >> 15) & 0x1FFF
	dst[12] = (src[4]>>28 | src[5]<<4) & 0x1FFF
	dst[13] = (src[5] >> 9) & 0x1FFF
	dst[14] = (src[5]>>22 | src[6]<<10) & 0x1FFF
	dst[15] = (src[6] >> 3) & 0x1FFF
	dst[16] = (src[6] >> 16) & 0x1FFF
	dst[17] = (src[6]>>29 | src[7]<<3) & 0x1FFF
	dst[18] = (src[7] >> 10) & 0x1FFF
	dst[19] = (src[7]>>23 | src[8]<<9) & 0x1FFF
	dst[20] = (src[8] >> 4) & 0x1FFF
	dst[21] = (src[8] >> 17) & 0x1FFF
	dst[22] = (src[8]>>30 | src[9]<<2) & 0x1FFF
	dst[23] = (src[9] >> 11) & 0x1FFF
	dst[24] = (src[9]>>24 | src[10]<<8) & 0x1FFF
	dst[25] = (src[10] >> 5) & 0x1FFF
	dst[26] = (src[10] >> 18) & 0x1FFF
	dst[27] = (src[10]>>31 | src[11]<<1) & 0x1FFF
	dst[28] = (src[11] >> 12) & 0x1FFF
	dst[29] = (src[11]>>25 | src[12]<<7) & 0x1FFF
	dst[30] = (src[12] >> 6) & 0x1FFF
	dst[31] = src[12] >> 19
}

// unpack32x14 expands 32 14-bit values from src[0:14] into dst[0:32].
func unpack32x14(dst *[32]uint32, src []uint32) {
	_ = src[13]
	dst[0] = src[0] & 0x3FFF
	dst[1] = (src[0] >> 14) & 0x3FFF
	dst[2] = (src[0]>>28 | src[1]<<4) & 0x3FFF
	dst[3] = (src[1] >> 10) & 0x3FFF
	dst[4] = (src[1]>>24 | src[2]<<8) & 0x3FFF
	dst[5] = (src[2] >> 6) & 0x3FFF
	dst[6] = (src[2]>>20 | src[3]<<12) & 0x3FFF
	dst[7] = (src[3] >> 2) & 0x3FFF
	dst[8] = (src[3] >> 16) & 0x3FFF
	dst[9] = (src[3]>>30 | src[4]<<2) & 0x3FFF
	dst[10] = (src[4] >> 12) & 0x3FFF
	dst[11] = (src[4]>>26 | src[5]<<6) & 0x3FFF
	dst[12] = (src[5] >> 8) & 0x3FFF
	dst[13] = (src[5]>>22 | src[6]<<10) & 0x3FFF
	dst[14] = (src[6] >> 4) & 0x3FFF
	dst[15] = src[6] >> 18
	dst[16] = src[7] & 0x3FFF
	dst[17] = (src[7] >> 14) & 0x3FFF
	dst[18] = (src[7]>>28 | src[8]<<4) & 0x3FFF
	dst[19] = (src[8] >> 10) & 0x3FFF
	dst[20] = (src[8]>>24 | src[9]<<8) & 0x3FFF
	dst[21] = (src[9] >> 6) & 0x3FFF
	dst[22] = (src[9]>>20 | src[10]<<12) & 0x3FFF
	dst[23] = (src[10] >> 2) & 0x3FFF
	dst[24] = (src[10] >> 16) & 0x3FFF
	dst[25] = (src[10]>>30 | src[11]<<2) & 0x3FFF
	dst[26] = (src[11] >> 12) & 0x3FFF
	dst[27] = (src[11]>>26 | src[12]<<6) & 0x3FFF
	dst[28] = (src[12] >> 8) & 0x3FFF
	dst[29] = (src[12]>>22 | src[13]<<10) & 0x3FFF
	dst[30] = (src[13] >> 4) & 0x3FFF
	dst[31] = src[13] >> 18
}

// unpack32x15 expands 32 15-bit values from src[0:15] into dst[0:32].
func unpack32x15(dst *[32]uint32, src []uint32) {
	_ = src[14]
	dst[0] = src[0] & 0x7FFF
	dst[1] = (src[0] >> 15) & 0x7FFF
	dst[2] = (src[0]>>30 | src[1]<<2) & 0x7FFF
	dst[3] = (src[1] >> 13) & 0x7FFF
	dst[4] = (src[1]>>28 | src[2]<<4) & 0x7FFF
	dst[5] = (src[2] >> 11) & 0x7FFF
	dst[6] = (src[2]>>26 | src[3]<<6) & 0x7FFF
	dst[7] = (src[3] >> 9) & 0x7FFF
	dst[8] = (src[3]>>24 | src[4]<<8) & 0x7FFF
	dst[9] = (src[4] >> 7) & 0x7FFF
	dst[10] = (src[4]>>22 | src[5]<<10) & 0x7FFF
	dst[11] = (src[5] >> 5) & 0x7FFF
	dst[12] = (src[5]>>20 | src[6]<<12) & 0x7FFF
	dst[13] = (src[6] >> 3) & 0x7FFF
	dst[14] = (src[6]>>18 | src[7]<<14) & 0x7FFF
	dst[15] = (src[7] >> 1) & 0x7FFF
	dst[16] = (src[7] >> 16) & 0x7FFF
	dst[17] = (src[7]>>31 | src[8]<<1) & 0x7FFF
	dst[18] = (src[8] >> 14) & 0x7FFF
	dst[19] = (src[8]>>29 | src[9]<<3) & 0x7FFF
	dst[20] = (src[9] >> 12) & 0x7FFF
	dst[21] = (src[9]>>27 | src[10]<<5) & 0x7FFF
	dst[22] = (src[10] >> 10) & 0x7FFF
	dst[23] = (src[10]>>25 | src[11]<<7) & 0x7FFF
	dst[24] = (src[11] >> 8) & 0x7FFF
	dst[25] = (src[11]>>23 | src[12]<<9) & 0x7FFF
	dst[26] = (src[12] >> 6) & 0x7FFF
	dst[27] = (src[12]>>21 | src[13]<<11) & 0x7FFF
	dst[28] = (src[13] >> 4) & 0x7FFF
	dst[29] = (src[13]>>19 | src[14]<<13) & 0x7FFF
	dst[30] = (src[14] >> 2) & 0x7FFF
	dst[31] = src[14] >> 17
}

// unpack32x16 expands 32 16-bit values from src[0:16] into dst[0:32].
func unpack32x16(dst *[32]uint32, src []uint32) {
	_ = src[15]
	dst[0] = src[0] & 0xFFFF
	dst[1] = src[0] >> 16
	dst[2] = src[1] & 0xFFFF
	dst[3] = src[1] >> 16
	dst[4] = src[2] & 0xFFFF
	dst[5] = src[2] >> 16
	dst[6] = src[3] & 0xFFFF
	dst[7] = src[3] >> 16
	dst[8] = src[4] & 0xFFFF
	dst[9] = src[4] >> 16
	dst[10] = src[5] & 0xFFFF
	dst[11] = src[5] >> 16
	dst[12] = src[6] & 0xFFFF
	dst[13] = src[6] >> 16
	dst[14] = src[7] & 0xFFFF
	dst[15] = src[7] >> 16
	dst[16] = src[8] & 0xFFFF
	dst[17] = src[8] >> 16
	dst[18] = src[9] & 0xFFFF
	dst[19] = src[9] >> 16
	dst[20] = src[10] & 0xFFFF
	dst[21] = src[10] >> 16
	dst[22] = src[11] & 0xFFFF
	dst[23] = src[11] >> 16
	dst[24] = src[12] & 0xFFFF
	dst[25] = src[12] >> 16
	dst[26] = src[13] & 0xFFFF
	dst[27] = src[13] >> 16
	dst[28] = src[14] & 0xFFFF
	dst[29] = src[14] >> 16
	dst[30] = src[15] & 0xFFFF
	dst[31] = src[15] >> 16
}

// unpack32x17 expands 32 17-bit values from src[0:17] into dst[0:32].
func unpack32x17(dst *[32]uint32, src []uint32) {
	_ = src[16]
	dst[0] = src[0] & 0x1FFFF
	dst[1] = (src[0]>>17 | src[1]<<15) & 0x1FFFF
	dst[2] = (src[1] >> 2) & 0x1FFFF
	dst[3] = (src[1]>>19 | src[2]<<13) & 0x1FFFF
	dst[4] = (src[2] >> 4) & 0x1FFFF
	dst[5] = (src[2]>>21 | src[3]<<11) & 0x1FFFF
	dst[6] = (src[3] >> 6) & 0x1FFFF
	dst[7] = (src[3]>>23 | src[4]<<9) & 0x1FFFF
	dst[8] = (src[4] >> 8) & 0x1FFFF
	dst[9] = (src[4]>>25 | src[5]<<7) & 0x1FFFF
	dst[10] = (src[5] >> 10) & 0x1FFFF
	dst[11] = (src[5]>>27 | src[6]<<5) & 0x1FFFF
	dst[12] = (src[6] >> 12) & 0x1FFFF
	dst[13] = (src[6]>>29 | src[7]<<3) & 0x1FFFF
	dst[14] = (src[7] >> 14) & 0x1FFFF
	dst[15] = (src[7]>>31 | src[8]<<1) & 0x1FFFF
	dst[16] = (src[8]>>16 | src[9]<<16) & 0x1FFFF
	dst[17] = (src[9] >> 1) & 0x1FFFF
	dst[18] = (src[9]>>18 | src[10]<<14) & 0x1FFFF
	dst[19] = (src[10] >> 3) & 0x1FFFF
	dst[20] = (src[10]>>20 | src[11]<<12) & 0x1FFFF
	dst[21] = (src[11] >> 5) & 0x1FFFF
	dst[22] = (src[11]>>22 | src[12]<<10) & 0x1FFFF
	dst[23] = (src[12] >> 7) & 0x1FFFF
	dst[24] = (src[12]>>24 | src[13]<<8) & 0x1FFFF
	dst[25] = (src[13] >> 9) & 0x1FFFF
	dst[26] = (src[13]>>26 | src[14]<<6) & 0x1FFFF
	dst[27] = (src[14] >> 11) & 0x1FFFF
	dst[28] = (src[14]>>28 | src[15]<<4) & 0x1FFFF
	dst[29] = (src[15] >> 13) & 0x1FFFF
	dst[30] = (src[15]>>30 | src[16]<<2) & 0x1FFFF
	dst[31] = src[16] >> 15
}

// unpack32x18 expands 32 18-bit values from src[0:18] into dst[0:32].
func unpack32x18(dst *[32]uint32, src []uint32) {
	_ = src[17]
	dst[0] = src[0] & 0x3FFFF
	dst[1] = (src[0]>>18 | src[1]<<14) & 0x3FFFF
	dst[2] = (src[1] >> 4) & 0x3FFFF
	dst[3] = (src[1]>>22 | src[2]<<10) & 0x3FFFF
	dst[4] = (src[2] >> 8) & 0x3FFFF
	dst[5] = (src[2]>>26 | src[3]<<6) & 0x3FFFF
	dst[6] = (src[3] >> 12) & 0x3FFFF
	dst[7] = (src[3]>>30 | src[4]<<2) & 0x3FFFF
	dst[8] = (src[4]>>16 | src[5]<<16) & 0x3FFFF
	dst[9] = (src[5] >> 2) & 0x3FFFF
	dst[10] = (src[5]>>20 | src[6]<<12) & 0x3FFFF
	dst[11] = (src[6] >> 6) & 0x3FFFF
	dst[12] = (src[6]>>24 | src[7]<<8) & 0x3FFFF
	dst[13] = (src[7] >> 10) & 0x3FFFF
	dst[14] = (src[7]>>28 | src[8]<<4) & 0x3FFFF
	dst[15] = src[8] >> 14
	dst[16] = src[9] & 0x3FFFF
	dst[17] = (src[9]>>18 | src[10]<<14) & 0x3FFFF
	dst[18] = (src[10] >> 4) & 0x3FFFF
	dst[19] = (src[10]>>22 | src[11]<<10) & 0x3FFFF
	dst[20] = (src[11] >> 8) & 0x3FFFF
	dst[21] = (src[11]>>26 | src[12]<<6) & 0x3FFFF
	dst[22] = (src[12] >> 12) & 0x3FFFF
	dst[23] = (src[12]>>30 | src[13]<<2) & 0x3FFFF
	dst[24] = (src[13]>>16 | src[14]<<16) & 0x3FFFF
	dst[25] = (src[14] >> 2) & 0x3FFFF
	dst[26] = (src[14]>>20 | src[15]<<12) & 0x3FFFF
	dst[27] = (src[15] >> 6) & 0x3FFFF
	dst[28] = (src[15]>>24 | src[16]<<8) & 0x3FFFF
	dst[29] = (src[16] >> 10) & 0x3FFFF
	dst[30] = (src[16]>>28 | src[17]<<4) & 0x3FFFF
	dst[31] = src[17] >> 14
}

// unpack32x19 expands 32 19-bit values from src[0:19] into dst[0:32].
func unpack32x19(dst *[32]uint32, src []uint32) {
	_ = src[18]
	dst[0] = src[0] & 0x7FFFF
	dst[1] = (src[0]>>19 | src[1]<<13) & 0x7FFFF
	dst[2] = (src[1] >> 6) & 0x7FFFF
	dst[3] = (src[1]>>25 | src[2]<<7) & 0x7FFFF
	dst[4] = (src[2] >> 12) & 0x7FFFF
	dst[5] = (src[2]>>31 | src[3]<<1) & 0x7FFFF
	dst[6] = (src[3]>>18 | src[4]<<14) & 0x7FFFF
	dst[7] = (src[4] >> 5) & 0x7FFFF
	dst[8] = (src[4]>>24 | src[5]<<8) & 0x7FFFF
	dst[9] = (src[5] >> 11) & 0x7FFFF
	dst[10] = (src[5]>>30 | src[6]<<2) & 0x7FFFF
	dst[11] = (src[6]>>17 | src[7]<<15) & 0x7FFFF
	dst[12] = (src[7] >> 4) & 0x7FFFF
	dst[13] = (src[7]>>23 | src[8]<<9) & 0x7FFFF
	dst[14] = (src[8] >> 10) & 0x7FFFF
	dst[15] = (src[8]>>29 | src[9]<<3) & 0x7FFFF
	dst[16] = (src[9]>>16 | src[10]<<16) & 0x7FFFF
	dst[17] = (src[10] >> 3) & 0x7FFFF
	dst[18] = (src[10]>>22 | src[11]<<10) & 0x7FFFF
	dst[19] = (src[11] >> 9) & 0x7FFFF
	dst[20] = (src[11]>>28 | src[12]<<4) & 0x7FFFF
	dst[21] = (src[12]>>15 | src[13]<<17) & 0x7FFFF
	dst[22] = (src[13] >> 2) & 0x7FFFF
	dst[23] = (src[13]>>21 | src[14]<<11) & 0x7FFFF
	dst[24] = (src[14] >> 8) & 0x7FFFF
	dst[25] = (src[14]>>27 | src[15]<<5) & 0x7FFFF
	dst[26] = (src[15]>>14 | src[16]<<18) & 0x7FFFF
	dst[27] = (src[16] >> 1) & 0x7FFFF
	dst[28] = (src[16]>>20 | src[17]<<12) & 0x7FFFF
	dst[29] = (src[17] >> 7) & 0x7FFFF
	dst[30] = (src[17]>>26 | src[18]<<6) & 0x7FFFF
	dst[31] = src[18] >> 13
}

// unpack32x20 expands 32 20-bit values from src[0:20] into dst[0:32].
func unpack32x20(dst *[32]uint32, src []uint32) {
	_ = src[19]
	dst[0] = src[0] & 0xFFFFF
	dst[1] = (src[0]>>20 | src[1]<<12) & 0xFFFFF
	dst[2] = (src[1] >> 8) & 0xFFFFF
	dst[3] = (src[1]>>28 | src[2]<<4) & 0xFFFFF
	dst[4] = (src[2]>>16 | src[3]<<16) & 0xFFFFF
	dst[5] = (src[3] >> 4) & 0xFFFFF
	dst[6] = (src[3]>>24 | src[4]<<8) & 0xFFFFF
	dst[7] = src[4] >> 12
	dst[8] = src[5] & 0xFFFFF
	dst[9] = (src[5]>>20 | src[6]<<12) & 0xFFFFF
	dst[10] = (src[6] >> 8) & 0xFFFFF
	dst[11] = (src[6]>>28 | src[7]<<4) & 0xFFFFF
	dst[12] = (src[7]>>16 | src[8]<<16) & 0xFFFFF
	dst[13] = (src[8] >> 4) & 0xFFFFF
	dst[14] = (src[8]>>24 | src[9]<<8) & 0xFFFFF
	dst[15] = src[9] >> 12
	dst[16] = src[10] & 0xFFFFF
	dst[17] = (src[10]>>20 | src[11]<<12) & 0xFFFFF
	dst[18] = (src[11] >> 8) & 0xFFFFF
	dst[19] = (src[11]>>28 | src[12]<<4) & 0xFFFFF
	dst[20] = (src[12]>>16 | src[13]<<16) & 0xFFFFF
	dst[21] = (src[13] >> 4) & 0xFFFFF
	dst[22] = (src[13]>>24 | src[14]<<8) & 0xFFFFF
	dst[23] = src[14] >> 12
	dst[24] = src[15] & 0xFFFFF
	dst[25] = (src[15]>>20 | src[16]<<12) & 0xFFFFF
	dst[26] = (src[16] >> 8) & 0xFFFFF
	dst[27] = (src[16]>>28 | src[17]<<4) & 0xFFFFF
	dst[28] = (src[17]>>16 | src[18]<<16) & 0xFFFFF
	dst[29] = (src[18] >> 4) & 0xFFFFF
	dst[30] = (src[18]>>24 | src[19]<<8) & 0xFFFFF
	dst[31] = src[19] >> 12
}

// unpack32x21 expands 32 21-bit values from src[0:21] into dst[0:32].
func unpack32x21(dst *[32]uint32, src []uint32) {
	_ = src[20]
	dst[0] = src[0] & 0x1FFFFF
	dst[1] = (src[0]>>21 | src[1]<<11) & 0x1FFFFF
	dst[2] = (src[1] >> 10) & 0x1FFFFF
	dst[3] = (src[1]>>31 | src[2]<<1) & 0x1FFFFF
	dst[4] = (src[2]>>20 | src[3]<<12) & 0x1FFFFF
	dst[5] = (src[3] >> 9) & 0x1FFFFF
	dst[6] = (src[3]>>30 | src[4]<<2) & 0x1FFFFF
	dst[7] = (src[4]>>19 | src[5]<<13) & 0x1FFFFF
	dst[8] = (src[5] >> 8) & 0x1FFFFF
	dst[9] = (src[5]>>29 | src[6]<<3) & 0x1FFFFF
	dst[10] = (src[6]>>18 | src[7]<<14) & 0x1FFFFF
	dst[11] = (src[7] >> 7) & 0x1FFFFF
	dst[12] = (src[7]>>28 | src[8]<<4) & 0x1FFFFF
	dst[13] = (src[8]>>17 | src[9]<<15) & 0x1FFFFF
	dst[14] = (src[9] >> 6) & 0x1FFFFF
	dst[15] = (src[9]>>27 | src[10]<<5) & 0x1FFFFF
	dst[16] = (src[10]>>16 | src[11]<<16) & 0x1FFFFF
	dst[17] = (src[11] >> 5) & 0x1FFFFF
	dst[18] = (src[11]>>26 | src[12]<<6) & 0x1FFFFF
	dst[19] = (src[12]>>15 | src[13]<<17) & 0x1FFFFF
	dst[20] = (src[13] >> 4) & 0x1FFFFF
	dst[21] = (src[13]>>25 | src[14]<<7) & 0x1FFFFF
	dst[22] = (src[14]>>14 | src[15]<<18) & 0x1FFFFF
	dst[23] = (src[15] >> 3) & 0x1FFFFF
	dst[24] = (src[15]>>24 | src[16]<<8) & 0x1FFFFF
	dst[25] = (src[16]>>13 | src[17]<<19) & 0x1FFFFF
	dst[26] = (src[17] >> 2) & 0x1FFFFF
	dst[27] = (src[17]>>23 | src[18]<<9) & 0x1FFFFF
	dst[28] = (src[18]>>12 | src[19]<<20) & 0x1FFFFF
	dst[29] = (src[19] >> 1) & 0x1FFFFF
	dst[30] = (src[19]>>22 | src[20]<<10) & 0x1FFFFF
	dst[31] = src[20] >> 11
}

// unpack32x22 expands 32 22-bit values from src[0:22] into dst[0:32].
func unpack32x22(dst *[32]uint32, src []uint32) {
	_ = src[21]
	dst[0] = src[0] & 0x3FFFFF
	dst[1] = (src[0]>>22 | src[1]<<10) & 0x3FFFFF
	dst[2] = (src[1]>>12 | src[2]<<20) & 0x3FFFFF
	dst[3] = (src[2] >> 2) & 0x3FFFFF
	dst[4] = (src[2]>>24 | src[3]<<8) & 0x3FFFFF
	dst[5] = (src[3]>>14 | src[4]<<18) & 0x3FFFFF
	dst[6] = (src[4] >> 4) & 0x3FFFFF
	dst[7] = (src[4]>>26 | src[5]<<6) & 0x3FFFFF
	dst[8] = (src[5]>>16 | src[6]<<16) & 0x3FFFFF
	dst[9] = (src[6] >> 6) & 0x3FFFFF
	dst[10] = (src[6]>>28 | src[7]<<4) & 0x3FFFFF
	dst[11] = (src[7]>>18 | src[8]<<14) & 0x3FFFFF
	dst[12] = (src[8] >> 8) & 0x3FFFFF
	dst[13] = (src[8]>>30 | src[9]<<2) & 0x3FFFFF
	dst[14] = (src[9]>>20 | src[10]<<12) & 0x3FFFFF
	dst[15] = src[10] >> 10
	dst[16] = src[11] & 0x3FFFFF
	dst[17] = (src[11]>>22 | src[12]<<10) & 0x3FFFFF
	dst[18] = (src[12]>>12 | src[13]<<20) & 0x3FFFFF
	dst[19] = (src[13] >> 2) & 0x3FFFFF
	dst[20] = (src[13]>>24 | src[14]<<8) & 0x3FFFFF
	dst[21] = (src[14]>>14 | src[15]<<18) & 0x3FFFFF
	dst[22] = (src[15] >> 4) & 0x3FFFFF
	dst[23] = (src[15]>>26 | src[16]<<6) & 0x3FFFFF
	dst[24] = (src[16]>>16 | src[17]<<16) & 0x3FFFFF
	dst[25] = (src[17] >> 6) & 0x3FFFFF
	dst[26] = (src[17]>>28 | src[18]<<4) & 0x3FFFFF
	dst[27] = (src[18]>>18 | src[19]<<14) & 0x3FFFFF
	dst[28] = (src[19] >> 8) & 0x3FFFFF
	dst[29] = (src[19]>>30 | src[20]<<2) & 0x3FFFFF
	dst[30] = (src[20]>>20 | src[21]<<12) & 0x3FFFFF
	dst[31] = src[21] >> 10
}

// unpack32x23 expands 32 23-bit values from src[0:23] into dst[0:32].
func unpack32x23(dst *[32]uint32, src []uint32) {
	_ = src[22]
	dst[0] = src[0] & 0x7FFFFF
	dst[1] = (src[0]>>23 | src[1]<<9) & 0x7FFFFF
	dst[2] = (src[1]>>14 | src[2]<<18) & 0x7FFFFF
	dst[3] = (src[2] >> 5) & 0x7FFFFF
	dst[4] = (src[2]>>28 | src[3]<<4) & 0x7FFFFF
	dst[5] = (src[3]>>19 | src[4]<<13) & 0x7FFFFF
	dst[6] = (src[4]>>10 | src[5]<<22) & 0x7FFFFF
	dst[7] = (src[5] >> 1) & 0x7FFFFF
	dst[8] = (src[5]>>24 | src[6]<<8) & 0x7FFFFF
	dst[9] = (src[6]>>15 | src[7]<<17) & 0x7FFFFF
	dst[10] = (src[7] >> 6) & 0x7FFFFF
	dst[11] = (src[7]>>29 | src[8]<<3) & 0x7FFFFF
	dst[12] = (src[8]>>20 | src[9]<<12) & 0x7FFFFF
	dst[13] = (src[9]>>11 | src[10]<<21) & 0x7FFFFF
	dst[14] = (src[10] >> 2) & 0x7FFFFF
	dst[15] = (src[10]>>25 | src[11]<<7) & 0x7FFFFF
	dst[16] = (src[11]>>16 | src[12]<<16) & 0x7FFFFF
	dst[17] = (src[12] >> 7) & 0x7FFFFF
	dst[18] = (src[12]>>30 | src[13]<<2) & 0x7FFFFF
	dst[19] = (src[13]>>21 | src[14]<<11) & 0x7FFFFF
	dst[20] = (src[14]>>12 | src[15]<<20) & 0x7FFFFF
	dst[21] = (src[15] >> 3) & 0x7FFFFF
	dst[22] = (src[15]>>26 | src[16]<<6) & 0x7FFFFF
	dst[23] = (src[16]>>17 | src[17]<<15) & 0x7FFFFF
	dst[24] = (src[17] >> 8) & 0x7FFFFF
	dst[25] = (src[17]>>31 | src[18]<<1) & 0x7FFFFF
	dst[26] = (src[18]>>22 | src[19]<<10) & 0x7FFFFF
	dst[27] = (src[19]>>13 | src[20]<<19) & 0x7FFFFF
	dst[28] = (src[20] >> 4) & 0x7FFFFF
	dst[29] = (src[20]>>27 | src[21]<<5) & 0x7FFFFF
	dst[30] = (src[21]>>18 | src[22]<<14) & 0x7FFFFF
	dst[31] = src[22] >> 9
}

// unpack32x24 expands 32 24-bit values from src[0:24] into dst[0:32].
func unpack32x24(dst *[32]uint32, src []uint32) {
	_ = src[23]
	dst[0] = src[0] & 0xFFFFFF
	dst[1] = (src[0]>>24 | src[1]<<8) & 0xFFFFFF
	dst[2] = (src[1]>>16 | src[2]<<16) & 0xFFFFFF
	dst[3] = src[2] >> 8
	dst[4] = src[3] & 0xFFFFFF
	dst[5] = (src[3]>>24 | src[4]<<8) & 0xFFFFFF
	dst[6] = (src[4]>>16 | src[5]<<16) & 0xFFFFFF
	dst[7] = src[5] >> 8
	dst[8] = src[6] & 0xFFFFFF
	dst[9] = (src[6]>>24 | src[7]<<8) & 0xFFFFFF
	dst[10] = (src[7]>>16 | src[8]<<16) & 0xFFFFFF
	dst[11] = src[8] >> 8
	dst[12] = src[9] & 0xFFFFFF
	dst[13] = (src[9]>>24 | src[10]<<8) & 0xFFFFFF
	dst[14] = (src[10]>>16 | src[11]<<16) & 0xFFFFFF
	dst[15] = src[11] >> 8
	dst[16] = src[12] & 0xFFFFFF
	dst[17] = (src[12]>>24 | src[13]<<8) & 0xFFFFFF
	dst[18] = (src[13]>>16 | src[14]<<16) & 0xFFFFFF
	dst[19] = src[14] >> 8
	dst[20] = src[15] & 0xFFFFFF
	dst[21] = (src[15]>>24 | src[16]<<8) & 0xFFFFFF
	dst[22] = (src[16]>>16 | src[17]<<16) & 0xFFFFFF
	dst[23] = src[17] >> 8
	dst[24] = src[18] & 0xFFFFFF
	dst[25] = (src[18]>>24 | src[19]<<8) & 0xFFFFFF
	dst[26] = (src[19]>>16 | src[20]<<16) & 0xFFFFFF
	dst[27] = src[20] >> 8
	dst[28] = src[21] & 0xFFFFFF
	dst[29] = (src[21]>>24 | src[22]<<8) & 0xFFFFFF
	dst[30] = (src[22]>>16 | src[23]<<16) & 0xFFFFFF
	dst[31] = src[23] >> 8
}

// unpack32x25 expands 32 25-bit values from src[0:25] into dst[0:32].
func unpack32x25(dst *[32]uint32, src []uint32) {
	_ = src[24]
	dst[0] = src[0] & 0x1FFFFFF
	dst[1] = (src[0]>>25 | src[1]<<7) & 0x1FFFFFF
	dst[2] = (src[1]>>18 | src[2]<<14) & 0x1FFFFFF
	dst[3] = (src[2]>>11 | src[3]<<21) & 0x1FFFFFF
	dst[4] = (src[3] >> 4) & 0x1FFFFFF
	dst[5] = (src[3]>>29 | src[4]<<3) & 0x1FFFFFF
	dst[6] = (src[4]>>22 | src[5]<<10) & 0x1FFFFFF
	dst[7] = (src[5]>>15 | src[6]<<17) & 0x1FFFFFF
	dst[8] = (src[6]>>8 | src[7]<<24) & 0x1FFFFFF
	dst[9] = (src[7] >> 1) & 0x1FFFFFF
	dst[10] = (src[7]>>26 | src[8]<<6) & 0x1FFFFFF
	dst[11] = (src[8]>>19 | src[9]<<13) & 0x1FFFFFF
	dst[12] = (src[9]>>12 | src[10]<<20) & 0x1FFFFFF
	dst[13] = (src[10] >> 5) & 0x1FFFFFF
	dst[14] = (src[10]>>30 | src[11]<<2) & 0x1FFFFFF
	dst[15] = (src[11]>>23 | src[12]<<9) & 0x1FFFFFF
	dst[16] = (src[12]>>16 | src[13]<<16) & 0x1FFFFFF
	dst[17] = (src[13]>>9 | src[14]<<23) & 0x1FFFFFF
	dst[18] = (src[14] >> 2) & 0x1FFFFFF
	dst[19] = (src[14]>>27 | src[15]<<5) & 0x1FFFFFF
	dst[20] = (src[15]>>20 | src[16]<<12) & 0x1FFFFFF
	dst[21] = (src[16]>>13 | src[17]<<19) & 0x1FFFFFF
	dst[22] = (src[17] >> 6) & 0x1FFFFFF
	dst[23] = (src[17]>>31 | src[18]<<1) & 0x1FFFFFF
	dst[24] = (src[18]>>24 | src[19]<<8) & 0x1FFFFFF
	dst[25] = (src[19]>>17 | src[20]<<15) & 0x1FFFFFF
	dst[26] = (src[20]>>10 | src[21]<<22) & 0x1FFFFFF
	dst[27] = (src[21] >> 3) & 0x1FFFFFF
	dst[28] = (src[21]>>28 | src[22]<<4) & 0x1FFFFFF
	dst[29] = (src[22]>>21 | src[23]<<11) & 0x1FFFFFF
	dst[30] = (src[23]>>14 | src[24]<<18) & 0x1FFFFFF
	dst[31] = src[24] >> 7
}

// unpack32x26 expands 32 26-bit values from src[0:26] into dst[0:32].
func unpack32x26(dst *[32]uint32, src []uint32) {
	_ = src[25]
	dst[0] = src[0] & 0x3FFFFFF
	dst[1] = (src[0]>>26 | src[1]<<6) & 0x3FFFFFF
	dst[2] = (src[1]>>20 | src[2]<<12) & 0x3FFFFFF
	dst[3] = (src[2]>>14 | src[3]<<18) & 0x3FFFFFF
	dst[4] = (src[3]>>8 | src[4]<<24) & 0x3FFFFFF
	dst[5] = (src[4] >> 2) & 0x3FFFFFF
	dst[6] = (src[4]>>28 | src[5]<<4) & 0x3FFFFFF
	dst[7] = (src[5]>>22 | src[6]<<10) & 0x3FFFFFF
	dst[8] = (src[6]>>16 | src[7]<<16) & 0x3FFFFFF
	dst[9] = (src[7]>>10 | src[8]<<22) & 0x3FFFFFF
	dst[10] = (src[8] >> 4) & 0x3FFFFFF
	dst[11] = (src[8]>>30 | src[9]<<2) & 0x3FFFFFF
	dst[12] = (src[9]>>24 | src[10]<<8) & 0x3FFFFFF
	dst[13] = (src[10]>>18 | src[11]<<14) & 0x3FFFFFF
	dst[14] = (src[11]>>12 | src[12]<<20) & 0x3FFFFFF
	dst[15] = src[12] >> 6
	dst[16] = src[13] & 0x3FFFFFF
	dst[17] = (src[13]>>26 | src[14]<<6) & 0x3FFFFFF
	dst[18] = (src[14]>>20 | src[15]<<12) & 0x3FFFFFF
	dst[19] = (src[15]>>14 | src[16]<<18) & 0x3FFFFFF
	dst[20] = (src[16]>>8 | src[17]<<24) & 0x3FFFFFF
	dst[21] = (src[17] >> 2) & 0x3FFFFFF
	dst[22] = (src[17]>>28 | src[18]<<4) & 0x3FFFFFF
	dst[23] = (src[18]>>22 | src[19]<<10) & 0x3FFFFFF
	dst[24] = (src[19]>>16 | src[20]<<16) & 0x3FFFFFF
	dst[25] = (src[20]>>10 | src[21]<<22) & 0x3FFFFFF
	dst[26] = (src[21] >> 4) & 0x3FFFFFF
	dst[27] = (src[21]>>30 | src[22]<<2) & 0x3FFFFFF
	dst[28] = (src[22]>>24 | src[23]<<8) & 0x3FFFFFF
	dst[29] = (src[23]>>18 | src[24]<<14) & 0x3FFFFFF
	dst[30] = (src[24]>>12 | src[25]<<20) & 0x3FFFFFF
	dst[31] = src[25] >> 6
}

// unpack32x27 expands 32 27-bit values from src[0:27] into dst[0:32].
func unpack32x27(dst *[32]uint32, src []uint32) {
	_ = src[26]
	dst[0] = src[0] & 0x7FFFFFF
	dst[1] = (src[0]>>27 | src[1]<<5) & 0x7FFFFFF
	dst[2] = (src[1]>>22 | src[2]<<10) & 0x7FFFFFF
	dst[3] = (src[2]>>17 | src[3]<<15) & 0x7FFFFFF
	dst[4] = (src[3]>>12 | src[4]<<20) & 0x7FFFFFF
	dst[5] = (src[4]>>7 | src[5]<<25) & 0x7FFFFFF
	dst[6] = (src[5] >> 2) & 0x7FFFFFF
	dst[7] = (src[5]>>29 | src[6]<<3) & 0x7FFFFFF
	dst[8] = (src[6]>>24 | src[7]<<8) & 0x7FFFFFF
	dst[9] = (src[7]>>19 | src[8]<<13) & 0x7FFFFFF
	dst[10] = (src[8]>>14 | src[9]<<18) & 0x7FFFFFF
	dst[11] = (src[9]>>9 | src[10]<<23) & 0x7FFFFFF
	dst[12] = (src[10] >> 4) & 0x7FFFFFF
	dst[13] = (src[10]>>31 | src[11]<<1) & 0x7FFFFFF
	dst[14] = (src[11]>>26 | src[12]<<6) & 0x7FFFFFF
	dst[15] = (src[12]>>21 | src[13]<<11) & 0x7FFFFFF
	dst[16] = (src[13]>>16 | src[14]<<16) & 0x7FFFFFF
	dst[17] = (src[14]>>11 | src[15]<<21) & 0x7FFFFFF
	dst[18] = (src[15]>>6 | src[16]<<26) & 0x7FFFFFF
	dst[19] = (src[16] >> 1) & 0x7FFFFFF
	dst[20] = (src[16]>>28 | src[17]<<4) & 0x7FFFFFF
	dst[21] = (src[17]>>23 | src[18]<<9) & 0x7FFFFFF
	dst[22] = (src[18]>>18 | src[19]<<14) & 0x7FFFFFF
	dst[23] = (src[19]>>13 | src[20]<<19) & 0x7FFFFFF
	dst[24] = (src[20]>>8 | src[21]<<24) & 0x7FFFFFF
	dst[25] = (src[21] >> 3) & 0x7FFFFFF
	dst[26] = (src[21]>>30 | src[22]<<2) & 0x7FFFFFF
	dst[27] = (src[22]>>25 | src[23]<<7) & 0x7FFFFFF
	dst[28] = (src[23]>>20 | src[24]<<12) & 0x7FFFFFF
	dst[29] = (src[24]>>15 | src[25]<<17) & 0x7FFFFFF
	dst[30] = (src[25]>>10 | src[26]<<22) & 0x7FFFFFF
	dst[31] = src[26] >> 5
}

// unpack32x28 expands 32 28-bit values from src[0:28] into dst[0:32].
func unpack32x28(dst *[32]uint32, src []uint32) {
	_ = src[27]
	dst[0] = src[0] & 0xFFFFFFF
	dst[1] = (src[0]>>28 | src[1]<<4) & 0xFFFFFFF
	dst[2] = (src[1]>>24 | src[2]<<8) & 0xFFFFFFF
	dst[3] = (src[2]>>20 | src[3]<<12) & 0xFFFFFFF
	dst[4] = (src[3]>>16 | src[4]<<16) & 0xFFFFFFF
	dst[5] = (src[4]>>12 | src[5]<<20) & 0xFFFFFFF
	dst[6] = (src[5]>>8 | src[6]<<24) & 0xFFFFFFF
	dst[7] = src[6] >> 4
	dst[8] = src[7] & 0xFFFFFFF
	dst[9] = (src[7]>>28 | src[8]<<4) & 0xFFFFFFF
	dst[10] = (src[8]>>24 | src[9]<<8) & 0xFFFFFFF
	dst[11] = (src[9]>>20 | src[10]<<12) & 0xFFFFFFF
	dst[12] = (src[10]>>16 | src[11]<<16) & 0xFFFFFFF
	dst[13] = (src[11]>>12 | src[12]<<20) & 0xFFFFFFF
	dst[14] = (src[12]>>8 | src[13]<<24) & 0xFFFFFFF
	dst[15] = src[13] >> 4
	dst[16] = src[14] & 0xFFFFFFF
	dst[17] = (src[14]>>28 | src[15]<<4) & 0xFFFFFFF
	dst[18] = (src[15]>>24 | src[16]<<8) & 0xFFFFFFF
	dst[19] = (src[16]>>20 | src[17]<<12) & 0xFFFFFFF
	dst[20] = (src[17]>>16 | src[18]<<16) & 0xFFFFFFF
	dst[21] = (src[18]>>12 | src[19]<<20) & 0xFFFFFFF
	dst[22] = (src[19]>>8 | src[20]<<24) & 0xFFFFFFF
	dst[23] = src[20] >> 4
	dst[24] = src[21] & 0xFFFFFFF
	dst[25] = (src[21]>>28 | src[22]<<4) & 0xFFFFFFF
	dst[26] = (src[22]>>24 | src[23]<<8) & 0xFFFFFFF
	dst[27] = (src[23]>>20 | src[24]<<12) & 0xFFFFFFF
	dst[28] = (src[24]>>16 | src[25]<<16) & 0xFFFFFFF
	dst[29] = (src[25]>>12 | src[26]<<20) & 0xFFFFFFF
	dst[30] = (src[26]>>8 | src[27]<<24) & 0xFFFFFFF
	dst[31] = src[27] >> 4
}

// unpack32x29 expands 32 29-bit values from src[0:29] into dst[0:32].
func unpack32x29(dst *[32]uint32, src []uint32) {
	_ = src[28]
	dst[0] = src[0] & 0x1FFFFFFF
	dst[1] = (src[0]>>29 | src[1]<<3) & 0x1FFFFFFF
	dst[2] = (src[1]>>26 | src[2]<<6) & 0x1FFFFFFF
	dst[3] = (src[2]>>23 | src[3]<<9) & 0x1FFFFFFF
	dst[4] = (src[3]>>20 | src[4]<<12) & 0x1FFFFFFF
	dst[5] = (src[4]>>17 | src[5]<<15) & 0x1FFFFFFF
	dst[6] = (src[5]>>14 | src[6]<<18) & 0x1FFFFFFF
	dst[7] = (src[6]>>11 | src[7]<<21) & 0x1FFFFFFF
	dst[8] = (src[7]>>8 | src[8]<<24) & 0x1FFFFFFF
	dst[9] = (src[8]>>5 | src[9]<<27) & 0x1FFFFFFF
	dst[10] = (src[9] >> 2) & 0x1FFFFFFF
	dst[11] = (src[9]>>31 | src[10]<<1) & 0x1FFFFFFF
	dst[12] = (src[10]>>28 | src[11]<<4) & 0x1FFFFFFF
	dst[13] = (src[11]>>25 | src[12]<<7) & 0x1FFFFFFF
	dst[14] = (src[12]>>22 | src[13]<<10) & 0x1FFFFFFF
	dst[15] = (src[13]>>19 | src[14]<<13) & 0x1FFFFFFF
	dst[16] = (src[14]>>16 | src[15]<<16) & 0x1FFFFFFF
	dst[17] = (src[15]>>13 | src[16]<<19) & 0x1FFFFFFF
	dst[18] = (src[16]>>10 | src[17]<<22) & 0x1FFFFFFF
	dst[19] = (src[17]>>7 | src[18]<<25) & 0x1FFFFFFF
	dst[20] = (src[18]>>4 | src[19]<<28) & 0x1FFFFFFF
	dst[21] = (src[19] >> 1) & 0x1FFFFFFF
	dst[22] = (src[19]>>30 | src[20]<<2) & 0x1FFFFFFF
	dst[23] = (src[20]>>27 | src[21]<<5) & 0x1FFFFFFF
	dst[24] = (src[21]>>24 | src[22]<<8) & 0x1FFFFFFF
	dst[25] = (src[22]>>21 | src[23]<<11) & 0x1FFFFFFF
	dst[26] = (src[23]>>18 | src[24]<<14) & 0x1FFFFFFF
	dst[27] = (src[24]>>15 | src[25]<<17) & 0x1FFFFFFF
	dst[28] = (src[25]>>12 | src[26]<<20) & 0x1FFFFFFF
	dst[29] = (src[26]>>9 | src[27]<<23) & 0x1FFFFFFF
	dst[30] = (src[27]>>6 | src[28]<<26) & 0x1FFFFFFF
	dst[31] = src[28] >> 3
}

// unpack32x30 expands 32 30-bit values from src[0:30] into dst[0:32].
func unpack32x30(dst *[32]uint32, src []uint32) {
	_ = src[29]
	dst[0] = src[0] & 0x3FFFFFFF
	dst[1] = (src[0]>>30 | src[1]<<2) & 0x3FFFFFFF
	dst[2] = (src[1]>>28 | src[2]<<4) & 0x3FFFFFFF
	dst[3] = (src[2]>>26 | src[3]<<6) & 0x3FFFFFFF
	dst[4] = (src[3]>>24 | src[4]<<8) & 0x3FFFFFFF
	dst[5] = (src[4]>>22 | src[5]<<10) & 0x3FFFFFFF
	dst[6] = (src[5]>>20 | src[6]<<12) & 0x3FFFFFFF
	dst[7] = (src[6]>>18 | src[7]<<14) & 0x3FFFFFFF
	dst[8] = (src[7]>>16 | src[8]<<16) & 0x3FFFFFFF
	dst[9] = (src[8]>>14 | src[9]<<18) & 0x3FFFFFFF
	dst[10] = (src[9]>>12 | src[10]<<20) & 0x3FFFFFFF
	dst[11] = (src[10]>>10 | src[11]<<22) & 0x3FFFFFFF
	dst[12] = (src[11]>>8 | src[12]<<24) & 0x3FFFFFFF
	dst[13] = (src[12]>>6 | src[13]<<26) & 0x3FFFFFFF
	dst[14] = (src[13]>>4 | src[14]<<28) & 0x3FFFFFFF
	dst[15] = src[14] >> 2
	dst[16] = src[15] & 0x3FFFFFFF
	dst[17] = (src[15]>>30 | src[16]<<2) & 0x3FFFFFFF
	dst[18] = (src[16]>>28 | src[17]<<4) & 0x3FFFFFFF
	dst[19] = (src[17]>>26 | src[18]<<6) & 0x3FFFFFFF
	dst[20] = (src[18]>>24 | src[19]<<8) & 0x3FFFFFFF
	dst[21] = (src[19]>>22 | src[20]<<10) & 0x3FFFFFFF
	dst[22] = (src[20]>>20 | src[21]<<12) & 0x3FFFFFFF
	dst[23] = (src[21]>>18 | src[22]<<14) & 0x3FFFFFFF
	dst[24] = (src[22]>>16 | src[23]<<16) & 0x3FFFFFFF
	dst[25] = (src[23]>>14 | src[24]<<18) & 0x3FFFFFFF
	dst[26] = (src[24]>>12 | src[25]<<20) & 0x3FFFFFFF
	dst[27] = (src[25]>>10 | src[26]<<22) & 0x3FFFFFFF
	dst[28] = (src[26]>>8 | src[27]<<24) & 0x3FFFFFFF
	dst[29] = (src[27]>>6 | src[28]<<26) & 0x3FFFFFFF
	dst[30] = (src[28]>>4 | src[29]<<28) & 0x3FFFFFFF
	dst[31] = src[29] >> 2
}

// unpack32x31 expands 32 31-bit values from src[0:31] into dst[0:32].
func unpack32x31(dst *[32]uint32, src []uint32) {
	_ = src[30]
	dst[0] = src[0] & 0x7FFFFFFF
	dst[1] = (src[0]>>31 | src[1]<<1) & 0x7FFFFFFF
	dst[2] = (src[1]>>30 | src[2]<<2) & 0x7FFFFFFF
	dst[3] = (src[2]>>29 | src[3]<<3) & 0x7FFFFFFF
	dst[4] = (src[3]>>28 | src[4]<<4) & 0x7FFFFFFF
	dst[5] = (src[4]>>27 | src[5]<<5) & 0x7FFFFFFF
	dst[6] = (src[5]>>26 | src[6]<<6) & 0x7FFFFFFF
	dst[7] = (src[6]>>25 | src[7]<<7) & 0x7FFFFFFF
	dst[8] = (src[7]>>24 | src[8]<<8) & 0x7FFFFFFF
	dst[9] = (src[8]>>23 | src[9]<<9) & 0x7FFFFFFF
	dst[10] = (src[9]>>22 | src[10]<<10) & 0x7FFFFFFF
	dst[11] = (src[10]>>21 | src[11]<<11) & 0x7FFFFFFF
	dst[12] = (src[11]>>20 | src[12]<<12) & 0x7FFFFFFF
	dst[13] = (src[12]>>19 | src[13]<<13) & 0x7FFFFFFF
	dst[14] = (src[13]>>18 | src[14]<<14) & 0x7FFFFFFF
	dst[15] = (src[14]>>17 | src[15]<<15) & 0x7FFFFFFF
	dst[16] = (src[15]>>16 | src[16]<<16) & 0x7FFFFFFF
	dst[17] = (src[16]>>15 | src[17]<<17) & 0x7FFFFFFF
	dst[18] = (src[17]>>14 | src[18]<<18) & 0x7FFFFFFF
	dst[19] = (src[18]>>13 | src[19]<<19) & 0x7FFFFFFF
	dst[20] = (src[19]>>12 | src[20]<<20) & 0x7FFFFFFF
	dst[21] = (src[20]>>11 | src[21]<<21) & 0x7FFFFFFF
	dst[22] = (src[21]>>10 | src[22]<<22) & 0x7FFFFFFF
	dst[23] = (src[22]>>9 | src[23]<<23) & 0x7FFFFFFF
	dst[24] = (src[23]>>8 | src[24]<<24) & 0x7FFFFFFF
	dst[25] = (src[24]>>7 | src[25]<<25) & 0x7FFFFFFF
	dst[26] = (src[25]>>6 | src[26]<<26) & 0x7FFFFFFF
	dst[27] = (src[26]>>5 | src[27]<<27) & 0x7FFFFFFF
	dst[28] = (src[27]>>4 | src[28]<<28) & 0x7FFFFFFF
	dst[29] = (src[28]>>3 | src[29]<<29) & 0x7FFFFFFF
	dst[30] = (src[29]>>2 | src[30]<<30) & 0x7FFFFFFF
	dst[31] = src[30] >> 1
}

// unpack32x32 copies 32 full-width values.
func unpack32x32(dst *[32]uint32, src []uint32) {
	copy(dst[:], src[:32])
}

// pack32x0 packs 32 zero-bit values: writes nothing.
func pack32x0(dst []uint32, src *[32]uint32) {
	_, _ = dst, src
}

// pack32x1 packs 32 1-bit values from src[0:32] into dst[0:1].
func pack32x1(dst []uint32, src *[32]uint32) {
	_ = dst[0]
	dst[0] = src[0] | src[1]<<1 | src[2]<<2 | src[3]<<3 | src[4]<<4 | src[5]<<5 | src[6]<<6 | src[7]<<7 | src[8]<<8 | src[9]<<9 | src[10]<<10 | src[11]<<11 | src[12]<<12 | src[13]<<13 | src[14]<<14 | src[15]<<15 | src[16]<<16 | src[17]<<17 | src[18]<<18 | src[19]<<19 | src[20]<<20 | src[21]<<21 | src[22]<<22 | src[23]<<23 | src[24]<<24 | src[25]<<25 | src[26]<<26 | src[27]<<27 | src[28]<<28 | src[29]<<29 | src[30]<<30 | src[31]<<31
}

// pack32x2 packs 32 2-bit values from src[0:32] into dst[0:2].
func pack32x2(dst []uint32, src *[32]uint32) {
	_ = dst[1]
	dst[0] = src[0] | src[1]<<2 | src[2]<<4 | src[3]<<6 | src[4]<<8 | src[5]<<10 | src[6]<<12 | src[7]<<14 | src[8]<<16 | src[9]<<18 | src[10]<<20 | src[11]<<22 | src[12]<<24 | src[13]<<26 | src[14]<<28 | src[15]<<30
	dst[1] = src[16] | src[17]<<2 | src[18]<<4 | src[19]<<6 | src[20]<<8 | src[21]<<10 | src[22]<<12 | src[23]<<14 | src[24]<<16 | src[25]<<18 | src[26]<<20 | src[27]<<22 | src[28]<<24 | src[29]<<26 | src[30]<<28 | src[31]<<30
}

// pack32x3 packs 32 3-bit values from src[0:32] into dst[0:3].
func pack32x3(dst []uint32, src *[32]uint32) {
	_ = dst[2]
	dst[0] = src[0] | src[1]<<3 | src[2]<<6 | src[3]<<9 | src[4]<<12 | src[5]<<15 | src[6]<<18 | src[7]<<21 | src[8]<<24 | src[9]<<27 | src[10]<<30
	dst[1] = src[10]>>2 | src[11]<<1 | src[12]<<4 | src[13]<<7 | src[14]<<10 | src[15]<<13 | src[16]<<16 | src[17]<<19 | src[18]<<22 | src[19]<<25 | src[20]<<28 | src[21]<<31
	dst[2] = src[21]>>1 | src[22]<<2 | src[23]<<5 | src[24]<<8 | src[25]<<11 | src[26]<<14 | src[27]<<17 | src[28]<<20 | src[29]<<23 | src[30]<<26 | src[31]<<29
}

// pack32x4 packs 32 4-bit values from src[0:32] into dst[0:4].
func pack32x4(dst []uint32, src *[32]uint32) {
	_ = dst[3]
	dst[0] = src[0] | src[1]<<4 | src[2]<<8 | src[3]<<12 | src[4]<<16 | src[5]<<20 | src[6]<<24 | src[7]<<28
	dst[1] = src[8] | src[9]<<4 | src[10]<<8 | src[11]<<12 | src[12]<<16 | src[13]<<20 | src[14]<<24 | src[15]<<28
	dst[2] = src[16] | src[17]<<4 | src[18]<<8 | src[19]<<12 | src[20]<<16 | src[21]<<20 | src[22]<<24 | src[23]<<28
	dst[3] = src[24] | src[25]<<4 | src[26]<<8 | src[27]<<12 | src[28]<<16 | src[29]<<20 | src[30]<<24 | src[31]<<28
}

// pack32x5 packs 32 5-bit values from src[0:32] into dst[0:5].
func pack32x5(dst []uint32, src *[32]uint32) {
	_ = dst[4]
	dst[0] = src[0] | src[1]<<5 | src[2]<<10 | src[3]<<15 | src[4]<<20 | src[5]<<25 | src[6]<<30
	dst[1] = src[6]>>2 | src[7]<<3 | src[8]<<8 | src[9]<<13 | src[10]<<18 | src[11]<<23 | src[12]<<28
	dst[2] = src[12]>>4 | src[13]<<1 | src[14]<<6 | src[15]<<11 | src[16]<<16 | src[17]<<21 | src[18]<<26 | src[19]<<31
	dst[3] = src[19]>>1 | src[20]<<4 | src[21]<<9 | src[22]<<14 | src[23]<<19 | src[24]<<24 | src[25]<<29
	dst[4] = src[25]>>3 | src[26]<<2 | src[27]<<7 | src[28]<<12 | src[29]<<17 | src[30]<<22 | src[31]<<27
}

// pack32x6 packs 32 6-bit values from src[0:32] into dst[0:6].
func pack32x6(dst []uint32, src *[32]uint32) {
	_ = dst[5]
	dst[0] = src[0] | src[1]<<6 | src[2]<<12 | src[3]<<18 | src[4]<<24 | src[5]<<30
	dst[1] = src[5]>>2 | src[6]<<4 | src[7]<<10 | src[8]<<16 | src[9]<<22 | src[10]<<28
	dst[2] = src[10]>>4 | src[11]<<2 | src[12]<<8 | src[13]<<14 | src[14]<<20 | src[15]<<26
	dst[3] = src[16] | src[17]<<6 | src[18]<<12 | src[19]<<18 | src[20]<<24 | src[21]<<30
	dst[4] = src[21]>>2 | src[22]<<4 | src[23]<<10 | src[24]<<16 | src[25]<<22 | src[26]<<28
	dst[5] = src[26]>>4 | src[27]<<2 | src[28]<<8 | src[29]<<14 | src[30]<<20 | src[31]<<26
}

// pack32x7 packs 32 7-bit values from src[0:32] into dst[0:7].
func pack32x7(dst []uint32, src *[32]uint32) {
	_ = dst[6]
	dst[0] = src[0] | src[1]<<7 | src[2]<<14 | src[3]<<21 | src[4]<<28
	dst[1] = src[4]>>4 | src[5]<<3 | src[6]<<10 | src[7]<<17 | src[8]<<24 | src[9]<<31
	dst[2] = src[9]>>1 | src[10]<<6 | src[11]<<13 | src[12]<<20 | src[13]<<27
	dst[3] = src[13]>>5 | src[14]<<2 | src[15]<<9 | src[16]<<16 | src[17]<<23 | src[18]<<30
	dst[4] = src[18]>>2 | src[19]<<5 | src[20]<<12 | src[21]<<19 | src[22]<<26
	dst[5] = src[22]>>6 | src[23]<<1 | src[24]<<8 | src[25]<<15 | src[26]<<22 | src[27]<<29
	dst[6] = src[27]>>3 | src[28]<<4 | src[29]<<11 | src[30]<<18 | src[31]<<25
}

// pack32x8 packs 32 8-bit values from src[0:32] into dst[0:8].
func pack32x8(dst []uint32, src *[32]uint32) {
	_ = dst[7]
	dst[0] = src[0] | src[1]<<8 | src[2]<<16 | src[3]<<24
	dst[1] = src[4] | src[5]<<8 | src[6]<<16 | src[7]<<24
	dst[2] = src[8] | src[9]<<8 | src[10]<<16 | src[11]<<24
	dst[3] = src[12] | src[13]<<8 | src[14]<<16 | src[15]<<24
	dst[4] = src[16] | src[17]<<8 | src[18]<<16 | src[19]<<24
	dst[5] = src[20] | src[21]<<8 | src[22]<<16 | src[23]<<24
	dst[6] = src[24] | src[25]<<8 | src[26]<<16 | src[27]<<24
	dst[7] = src[28] | src[29]<<8 | src[30]<<16 | src[31]<<24
}

// pack32x9 packs 32 9-bit values from src[0:32] into dst[0:9].
func pack32x9(dst []uint32, src *[32]uint32) {
	_ = dst[8]
	dst[0] = src[0] | src[1]<<9 | src[2]<<18 | src[3]<<27
	dst[1] = src[3]>>5 | src[4]<<4 | src[5]<<13 | src[6]<<22 | src[7]<<31
	dst[2] = src[7]>>1 | src[8]<<8 | src[9]<<17 | src[10]<<26
	dst[3] = src[10]>>6 | src[11]<<3 | src[12]<<12 | src[13]<<21 | src[14]<<30
	dst[4] = src[14]>>2 | src[15]<<7 | src[16]<<16 | src[17]<<25
	dst[5] = src[17]>>7 | src[18]<<2 | src[19]<<11 | src[20]<<20 | src[21]<<29
	dst[6] = src[21]>>3 | src[22]<<6 | src[23]<<15 | src[24]<<24
	dst[7] = src[24]>>8 | src[25]<<1 | src[26]<<10 | src[27]<<19 | src[28]<<28
	dst[8] = src[28]>>4 | src[29]<<5 | src[30]<<14 | src[31]<<23
}

// pack32x10 packs 32 10-bit values from src[0:32] into dst[0:10].
func pack32x10(dst []uint32, src *[32]uint32) {
	_ = dst[9]
	dst[0] = src[0] | src[1]<<10 | src[2]<<20 | src[3]<<30
	dst[1] = src[3]>>2 | src[4]<<8 | src[5]<<18 | src[6]<<28
	dst[2] = src[6]>>4 | src[7]<<6 | src[8]<<16 | src[9]<<26
	dst[3] = src[9]>>6 | src[10]<<4 | src[11]<<14 | src[12]<<24
	dst[4] = src[12]>>8 | src[13]<<2 | src[14]<<12 | src[15]<<22
	dst[5] = src[16] | src[17]<<10 | src[18]<<20 | src[19]<<30
	dst[6] = src[19]>>2 | src[20]<<8 | src[21]<<18 | src[22]<<28
	dst[7] = src[22]>>4 | src[23]<<6 | src[24]<<16 | src[25]<<26
	dst[8] = src[25]>>6 | src[26]<<4 | src[27]<<14 | src[28]<<24
	dst[9] = src[28]>>8 | src[29]<<2 | src[30]<<12 | src[31]<<22
}

// pack32x11 packs 32 11-bit values from src[0:32] into dst[0:11].
func pack32x11(dst []uint32, src *[32]uint32) {
	_ = dst[10]
	dst[0] = src[0] | src[1]<<11 | src[2]<<22
	dst[1] = src[2]>>10 | src[3]<<1 | src[4]<<12 | src[5]<<23
	dst[2] = src[5]>>9 | src[6]<<2 | src[7]<<13 | src[8]<<24
	dst[3] = src[8]>>8 | src[9]<<3 | src[10]<<14 | src[11]<<25
	dst[4] = src[11]>>7 | src[12]<<4 | src[13]<<15 | src[14]<<26
	dst[5] = src[14]>>6 | src[15]<<5 | src[16]<<16 | src[17]<<27
	dst[6] = src[17]>>5 | src[18]<<6 | src[19]<<17 | src[20]<<28
	dst[7] = src[20]>>4 | src[21]<<7 | src[22]<<18 | src[23]<<29
	dst[8] = src[23]>>3 | src[24]<<8 | src[25]<<19 | src[26]<<30
	dst[9] = src[26]>>2 | src[27]<<9 | src[28]<<20 | src[29]<<31
	dst[10] = src[29]>>1 | src[30]<<10 | src[31]<<21
}

// pack32x12 packs 32 12-bit values from src[0:32] into dst[0:12].
func pack32x12(dst []uint32, src *[32]uint32) {
	_ = dst[11]
	dst[0] = src[0] | src[1]<<12 | src[2]<<24
	dst[1] = src[2]>>8 | src[3]<<4 | src[4]<<16 | src[5]<<28
	dst[2] = src[5]>>4 | src[6]<<8 | src[7]<<20
	dst[3] = src[8] | src[9]<<12 | src[10]<<24
	dst[4] = src[10]>>8 | src[11]<<4 | src[12]<<16 | src[13]<<28
	dst[5] = src[13]>>4 | src[14]<<8 | src[15]<<20
	dst[6] = src[16] | src[17]<<12 | src[18]<<24
	dst[7] = src[18]>>8 | src[19]<<4 | src[20]<<16 | src[21]<<28
	dst[8] = src[21]>>4 | src[22]<<8 | src[23]<<20
	dst[9] = src[24] | src[25]<<12 | src[26]<<24
	dst[10] = src[26]>>8 | src[27]<<4 | src[28]<<16 | src[29]<<28
	dst[11] = src[29]>>4 | src[30]<<8 | src[31]<<20
}

// pack32x13 packs 32 13-bit values from src[0:32] into dst[0:13].
func pack32x13(dst []uint32, src *[32]uint32) {
	_ = dst[12]
	dst[0] = src[0] | src[1]<<13 | src[2]<<26
	dst[1] = src[2]>>6 | src[3]<<7 | src[4]<<20
	dst[2] = src[4]>>12 | src[5]<<1 | src[6]<<14 | src[7]<<27
	dst[3] = src[7]>>5 | src[8]<<8 | src[9]<<21
	dst[4] = src[9]>>11 | src[10]<<2 | src[11]<<15 | src[12]<<28
	dst[5] = src[12]>>4 | src[13]<<9 | src[14]<<22
	dst[6] = src[14]>>10 | src[15]<<3 | src[16]<<16 | src[17]<<29
	dst[7] = src[17]>>3 | src[18]<<10 | src[19]<<23
	dst[8] = src[19]>>9 | src[20]<<4 | src[21]<<17 | src[22]<<30
	dst[9] = src[22]>>2 | src[23]<<11 | src[24]<<24
	dst[10] = src[24]>>8 | src[25]<<5 | src[26]<<18 | src[27]<<31
	dst[11] = src[27]>>1 | src[28]<<12 | src[29]<<25
	dst[12] = src[29]>>7 | src[30]<<6 | src[31]<<19
}

// pack32x14 packs 32 14-bit values from src[0:32] into dst[0:14].
func pack32x14(dst []uint32, src *[32]uint32) {
	_ = dst[13]
	dst[0] = src[0] | src[1]<<14 | src[2]<<28
	dst[1] = src[2]>>4 | src[3]<<10 | src[4]<<24
	dst[2] = src[4]>>8 | src[5]<<6 | src[6]<<20
	dst[3] = src[6]>>12 | src[7]<<2 | src[8]<<16 | src[9]<<30
	dst[4] = src[9]>>2 | src[10]<<12 | src[11]<<26
	dst[5] = src[11]>>6 | src[12]<<8 | src[13]<<22
	dst[6] = src[13]>>10 | src[14]<<4 | src[15]<<18
	dst[7] = src[16] | src[17]<<14 | src[18]<<28
	dst[8] = src[18]>>4 | src[19]<<10 | src[20]<<24
	dst[9] = src[20]>>8 | src[21]<<6 | src[22]<<20
	dst[10] = src[22]>>12 | src[23]<<2 | src[24]<<16 | src[25]<<30
	dst[11] = src[25]>>2 | src[26]<<12 | src[27]<<26
	dst[12] = src[27]>>6 | src[28]<<8 | src[29]<<22
	dst[13] = src[29]>>10 | src[30]<<4 | src[31]<<18
}

// pack32x15 packs 32 15-bit values from src[0:32] into dst[0:15].
func pack32x15(dst []uint32, src *[32]uint32) {
	_ = dst[14]
	dst[0] = src[0] | src[1]<<15 | src[2]<<30
	dst[1] = src[2]>>2 | src[3]<<13 | src[4]<<28
	dst[2] = src[4]>>4 | src[5]<<11 | src[6]<<26
	dst[3] = src[6]>>6 | src[7]<<9 | src[8]<<24
	dst[4] = src[8]>>8 | src[9]<<7 | src[10]<<22
	dst[5] = src[10]>>10 | src[11]<<5 | src[12]<<20
	dst[6] = src[12]>>12 | src[13]<<3 | src[14]<<18
	dst[7] = src[14]>>14 | src[15]<<1 | src[16]<<16 | src[17]<<31
	dst[8] = src[17]>>1 | src[18]<<14 | src[19]<<29
	dst[9] = src[19]>>3 | src[20]<<12 | src[21]<<27
	dst[10] = src[21]>>5 | src[22]<<10 | src[23]<<25
	dst[11] = src[23]>>7 | src[24]<<8 | src[25]<<23
	dst[12] = src[25]>>9 | src[26]<<6 | src[27]<<21
	dst[13] = src[27]>>11 | src[28]<<4 | src[29]<<19
	dst[14] = src[29]>>13 | src[30]<<2 | src[31]<<17
}

// pack32x16 packs 32 16-bit values from src[0:32] into dst[0:16].
func pack32x16(dst []uint32, src *[32]uint32) {
	_ = dst[15]
	dst[0] = src[0] | src[1]<<16
	dst[1] = src[2] | src[3]<<16
	dst[2] = src[4] | src[5]<<16
	dst[3] = src[6] | src[7]<<16
	dst[4] = src[8] | src[9]<<16
	dst[5] = src[10] | src[11]<<16
	dst[6] = src[12] | src[13]<<16
	dst[7] = src[14] | src[15]<<16
	dst[8] = src[16] | src[17]<<16
	dst[9] = src[18] | src[19]<<16
	dst[10] = src[20] | src[21]<<16
	dst[11] = src[22] | src[23]<<16
	dst[12] = src[24] | src[25]<<16
	dst[13] = src[26] | src[27]<<16
	dst[14] = src[28] | src[29]<<16
	dst[15] = src[30] | src[31]<<16
}

// pack32x17 packs 32 17-bit values from src[0:32] into dst[0:17].
func pack32x17(dst []uint32, src *[32]uint32) {
	_ = dst[16]
	dst[0] = src[0] | src[1]<<17
	dst[1] = src[1]>>15 | src[2]<<2 | src[3]<<19
	dst[2] = src[3]>>13 | src[4]<<4 | src[5]<<21
	dst[3] = src[5]>>11 | src[6]<<6 | src[7]<<23
	dst[4] = src[7]>>9 | src[8]<<8 | src[9]<<25
	dst[5] = src[9]>>7 | src[10]<<10 | src[11]<<27
	dst[6] = src[11]>>5 | src[12]<<12 | src[13]<<29
	dst[7] = src[13]>>3 | src[14]<<14 | src[15]<<31
	dst[8] = src[15]>>1 | src[16]<<16
	dst[9] = src[16]>>16 | src[17]<<1 | src[18]<<18
	dst[10] = src[18]>>14 | src[19]<<3 | src[20]<<20
	dst[11] = src[20]>>12 | src[21]<<5 | src[22]<<22
	dst[12] = src[22]>>10 | src[23]<<7 | src[24]<<24
	dst[13] = src[24]>>8 | src[25]<<9 | src[26]<<26
	dst[14] = src[26]>>6 | src[27]<<11 | src[28]<<28
	dst[15] = src[28]>>4 | src[29]<<13 | src[30]<<30
	dst[16] = src[30]>>2 | src[31]<<15
}

// pack32x18 packs 32 18-bit values from src[0:32] into dst[0:18].
func pack32x18(dst []uint32, src *[32]uint32) {
	_ = dst[17]
	dst[0] = src[0] | src[1]<<18
	dst[1] = src[1]>>14 | src[2]<<4 | src[3]<<22
	dst[2] = src[3]>>10 | src[4]<<8 | src[5]<<26
	dst[3] = src[5]>>6 | src[6]<<12 | src[7]<<30
	dst[4] = src[7]>>2 | src[8]<<16
	dst[5] = src[8]>>16 | src[9]<<2 | src[10]<<20
	dst[6] = src[10]>>12 | src[11]<<6 | src[12]<<24
	dst[7] = src[12]>>8 | src[13]<<10 | src[14]<<28
	dst[8] = src[14]>>4 | src[15]<<14
	dst[9] = src[16] | src[17]<<18
	dst[10] = src[17]>>14 | src[18]<<4 | src[19]<<22
	dst[11] = src[19]>>10 | src[20]<<8 | src[21]<<26
	dst[12] = src[21]>>6 | src[22]<<12 | src[23]<<30
	dst[13] = src[23]>>2 | src[24]<<16
	dst[14] = src[24]>>16 | src[25]<<2 | src[26]<<20
	dst[15] = src[26]>>12 | src[27]<<6 | src[28]<<24
	dst[16] = src[28]>>8 | src[29]<<10 | src[30]<<28
	dst[17] = src[30]>>4 | src[31]<<14
}

// pack32x19 packs 32 19-bit values from src[0:32] into dst[0:19].
func pack32x19(dst []uint32, src *[32]uint32) {
	_ = dst[18]
	dst[0] = src[0] | src[1]<<19
	dst[1] = src[1]>>13 | src[2]<<6 | src[3]<<25
	dst[2] = src[3]>>7 | src[4]<<12 | src[5]<<31
	dst[3] = src[5]>>1 | src[6]<<18
	dst[4] = src[6]>>14 | src[7]<<5 | src[8]<<24
	dst[5] = src[8]>>8 | src[9]<<11 | src[10]<<30
	dst[6] = src[10]>>2 | src[11]<<17
	dst[7] = src[11]>>15 | src[12]<<4 | src[13]<<23
	dst[8] = src[13]>>9 | src[14]<<10 | src[15]<<29
	dst[9] = src[15]>>3 | src[16]<<16
	dst[10] = src[16]>>16 | src[17]<<3 | src[18]<<22
	dst[11] = src[18]>>10 | src[19]<<9 | src[20]<<28
	dst[12] = src[20]>>4 | src[21]<<15
	dst[13] = src[21]>>17 | src[22]<<2 | src[23]<<21
	dst[14] = src[23]>>11 | src[24]<<8 | src[25]<<27
	dst[15] = src[25]>>5 | src[26]<<14
	dst[16] = src[26]>>18 | src[27]<<1 | src[28]<<20
	dst[17] = src[28]>>12 | src[29]<<7 | src[30]<<26
	dst[18] = src[30]>>6 | src[31]<<13
}

// pack32x20 packs 32 20-bit values from src[0:32] into dst[0:20].
func pack32x20(dst []uint32, src *[32]uint32) {
	_ = dst[19]
	dst[0] = src[0] | src[1]<<20
	dst[1] = src[1]>>12 | src[2]<<8 | src[3]<<28
	dst[2] = src[3]>>4 | src[4]<<16
	dst[3] = src[4]>>16 | src[5]<<4 | src[6]<<24
	dst[4] = src[6]>>8 | src[7]<<12
	dst[5] = src[8] | src[9]<<20
	dst[6] = src[9]>>12 | src[10]<<8 | src[11]<<28
	dst[7] = src[11]>>4 | src[12]<<16
	dst[8] = src[12]>>16 | src[13]<<4 | src[14]<<24
	dst[9] = src[14]>>8 | src[15]<<12
	dst[10] = src[16] | src[17]<<20
	dst[11] = src[17]>>12 | src[18]<<8 | src[19]<<28
	dst[12] = src[19]>>4 | src[20]<<16
	dst[13] = src[20]>>16 | src[21]<<4 | src[22]<<24
	dst[14] = src[22]>>8 | src[23]<<12
	dst[15] = src[24] | src[25]<<20
	dst[16] = src[25]>>12 | src[26]<<8 | src[27]<<28
	dst[17] = src[27]>>4 | src[28]<<16
	dst[18] = src[28]>>16 | src[29]<<4 | src[30]<<24
	dst[19] = src[30]>>8 | src[31]<<12
}

// pack32x21 packs 32 21-bit values from src[0:32] into dst[0:21].
func pack32x21(dst []uint32, src *[32]uint32) {
	_ = dst[20]
	dst[0] = src[0] | src[1]<<21
	dst[1] = src[1]>>11 | src[2]<<10 | src[3]<<31
	dst[2] = src[3]>>1 | src[4]<<20
	dst[3] = src[4]>>12 | src[5]<<9 | src[6]<<30
	dst[4] = src[6]>>2 | src[7]<<19
	dst[5] = src[7]>>13 | src[8]<<8 | src[9]<<29
	dst[6] = src[9]>>3 | src[10]<<18
	dst[7] = src[10]>>14 | src[11]<<7 | src[12]<<28
	dst[8] = src[12]>>4 | src[13]<<17
	dst[9] = src[13]>>15 | src[14]<<6 | src[15]<<27
	dst[10] = src[15]>>5 | src[16]<<16
	dst[11] = src[16]>>16 | src[17]<<5 | src[18]<<26
	dst[12] = src[18]>>6 | src[19]<<15
	dst[13] = src[19]>>17 | src[20]<<4 | src[21]<<25
	dst[14] = src[21]>>7 | src[22]<<14
	dst[15] = src[22]>>18 | src[23]<<3 | src[24]<<24
	dst[16] = src[24]>>8 | src[25]<<13
	dst[17] = src[25]>>19 | src[26]<<2 | src[27]<<23
	dst[18] = src[27]>>9 | src[28]<<12
	dst[19] = src[28]>>20 | src[29]<<1 | src[30]<<22
	dst[20] = src[30]>>10 | src[31]<<11
}

// pack32x22 packs 32 22-bit values from src[0:32] into dst[0:22].
func pack32x22(dst []uint32, src *[32]uint32) {
	_ = dst[21]
	dst[0] = src[0] | src[1]<<22
	dst[1] = src[1]>>10 | src[2]<<12
	dst[2] = src[2]>>20 | src[3]<<2 | src[4]<<24
	dst[3] = src[4]>>8 | src[5]<<14
	dst[4] = src[5]>>18 | src[6]<<4 | src[7]<<26
	dst[5] = src[7]>>6 | src[8]<<16
	dst[6] = src[8]>>16 | src[9]<<6 | src[10]<<28
	dst[7] = src[10]>>4 | src[11]<<18
	dst[8] = src[11]>>14 | src[12]<<8 | src[13]<<30
	dst[9] = src[13]>>2 | src[14]<<20
	dst[10] = src[14]>>12 | src[15]<<10
	dst[11] = src[16] | src[17]<<22
	dst[12] = src[17]>>10 | src[18]<<12
	dst[13] = src[18]>>20 | src[19]<<2 | src[20]<<24
	dst[14] = src[20]>>8 | src[21]<<14
	dst[15] = src[21]>>18 | src[22]<<4 | src[23]<<26
	dst[16] = src[23]>>6 | src[24]<<16
	dst[17] = src[24]>>16 | src[25]<<6 | src[26]<<28
	dst[18] = src[26]>>4 | src[27]<<18
	dst[19] = src[27]>>14 | src[28]<<8 | src[29]<<30
	dst[20] = src[29]>>2 | src[30]<<20
	dst[21] = src[30]>>12 | src[31]<<10
}

// pack32x23 packs 32 23-bit values from src[0:32] into dst[0:23].
func pack32x23(dst []uint32, src *[32]uint32) {
	_ = dst[22]
	dst[0] = src[0] | src[1]<<23
	dst[1] = src[1]>>9 | src[2]<<14
	dst[2] = src[2]>>18 | src[3]<<5 | src[4]<<28
	dst[3] = src[4]>>4 | src[5]<<19
	dst[4] = src[5]>>13 | src[6]<<10
	dst[5] = src[6]>>22 | src[7]<<1 | src[8]<<24
	dst[6] = src[8]>>8 | src[9]<<15
	dst[7] = src[9]>>17 | src[10]<<6 | src[11]<<29
	dst[8] = src[11]>>3 | src[12]<<20
	dst[9] = src[12]>>12 | src[13]<<11
	dst[10] = src[13]>>21 | src[14]<<2 | src[15]<<25
	dst[11] = src[15]>>7 | src[16]<<16
	dst[12] = src[16]>>16 | src[17]<<7 | src[18]<<30
	dst[13] = src[18]>>2 | src[19]<<21
	dst[14] = src[19]>>11 | src[20]<<12
	dst[15] = src[20]>>20 | src[21]<<3 | src[22]<<26
	dst[16] = src[22]>>6 | src[23]<<17
	dst[17] = src[23]>>15 | src[24]<<8 | src[25]<<31
	dst[18] = src[25]>>1 | src[26]<<22
	dst[19] = src[26]>>10 | src[27]<<13
	dst[20] = src[27]>>19 | src[28]<<4 | src[29]<<27
	dst[21] = src[29]>>5 | src[30]<<18
	dst[22] = src[30]>>14 | src[31]<<9
}

// pack32x24 packs 32 24-bit values from src[0:32] into dst[0:24].
func pack32x24(dst []uint32, src *[32]uint32) {
	_ = dst[23]
	dst[0] = src[0] | src[1]<<24
	dst[1] = src[1]>>8 | src[2]<<16
	dst[2] = src[2]>>16 | src[3]<<8
	dst[3] = src[4] | src[5]<<24
	dst[4] = src[5]>>8 | src[6]<<16
	dst[5] = src[6]>>16 | src[7]<<8
	dst[6] = src[8] | src[9]<<24
	dst[7] = src[9]>>8 | src[10]<<16
	dst[8] = src[10]>>16 | src[11]<<8
	dst[9] = src[12] | src[13]<<24
	dst[10] = src[13]>>8 | src[14]<<16
	dst[11] = src[14]>>16 | src[15]<<8
	dst[12] = src[16] | src[17]<<24
	dst[13] = src[17]>>8 | src[18]<<16
	dst[14] = src[18]>>16 | src[19]<<8
	dst[15] = src[20] | src[21]<<24
	dst[16] = src[21]>>8 | src[22]<<16
	dst[17] = src[22]>>16 | src[23]<<8
	dst[18] = src[24] | src[25]<<24
	dst[19] = src[25]>>8 | src[26]<<16
	dst[20] = src[26]>>16 | src[27]<<8
	dst[21] = src[28] | src[29]<<24
	dst[22] = src[29]>>8 | src[30]<<16
	dst[23] = src[30]>>16 | src[31]<<8
}

// pack32x25 packs 32 25-bit values from src[0:32] into dst[0:25].
func pack32x25(dst []uint32, src *[32]uint32) {
	_ = dst[24]
	dst[0] = src[0] | src[1]<<25
	dst[1] = src[1]>>7 | src[2]<<18
	dst[2] = src[2]>>14 | src[3]<<11
	dst[3] = src[3]>>21 | src[4]<<4 | src[5]<<29
	dst[4] = src[5]>>3 | src[6]<<22
	dst[5] = src[6]>>10 | src[7]<<15
	dst[6] = src[7]>>17 | src[8]<<8
	dst[7] = src[8]>>24 | src[9]<<1 | src[10]<<26
	dst[8] = src[10]>>6 | src[11]<<19
	dst[9] = src[11]>>13 | src[12]<<12
	dst[10] = src[12]>>20 | src[13]<<5 | src[14]<<30
	dst[11] = src[14]>>2 | src[15]<<23
	dst[12] = src[15]>>9 | src[16]<<16
	dst[13] = src[16]>>16 | src[17]<<9
	dst[14] = src[17]>>23 | src[18]<<2 | src[19]<<27
	dst[15] = src[19]>>5 | src[20]<<20
	dst[16] = src[20]>>12 | src[21]<<13
	dst[17] = src[21]>>19 | src[22]<<6 | src[23]<<31
	dst[18] = src[23]>>1 | src[24]<<24
	dst[19] = src[24]>>8 | src[25]<<17
	dst[20] = src[25]>>15 | src[26]<<10
	dst[21] = src[26]>>22 | src[27]<<3 | src[28]<<28
	dst[22] = src[28]>>4 | src[29]<<21
	dst[23] = src[29]>>11 | src[30]<<14
	dst[24] = src[30]>>18 | src[31]<<7
}

// pack32x26 packs 32 26-bit values from src[0:32] into dst[0:26].
func pack32x26(dst []uint32, src *[32]uint32) {
	_ = dst[25]
	dst[0] = src[0] | src[1]<<26
	dst[1] = src[1]>>6 | src[2]<<20
	dst[2] = src[2]>>12 | src[3]<<14
	dst[3] = src[3]>>18 | src[4]<<8
	dst[4] = src[4]>>24 | src[5]<<2 | src[6]<<28
	dst[5] = src[6]>>4 | src[7]<<22
	dst[6] = src[7]>>10 | src[8]<<16
	dst[7] = src[8]>>16 | src[9]<<10
	dst[8] = src[9]>>22 | src[10]<<4 | src[11]<<30
	dst[9] = src[11]>>2 | src[12]<<24
	dst[10] = src[12]>>8 | src[13]<<18
	dst[11] = src[13]>>14 | src[14]<<12
	dst[12] = src[14]>>20 | src[15]<<6
	dst[13] = src[16] | src[17]<<26
	dst[14] = src[17]>>6 | src[18]<<20
	dst[15] = src[18]>>12 | src[19]<<14
	dst[16] = src[19]>>18 | src[20]<<8
	dst[17] = src[20]>>24 | src[21]<<2 | src[22]<<28
	dst[18] = src[22]>>4 | src[23]<<22
	dst[19] = src[23]>>10 | src[24]<<16
	dst[20] = src[24]>>16 | src[25]<<10
	dst[21] = src[25]>>22 | src[26]<<4 | src[27]<<30
	dst[22] = src[27]>>2 | src[28]<<24
	dst[23] = src[28]>>8 | src[29]<<18
	dst[24] = src[29]>>14 | src[30]<<12
	dst[25] = src[30]>>20 | src[31]<<6
}

// pack32x27 packs 32 27-bit values from src[0:32] into dst[0:27].
func pack32x27(dst []uint32, src *[32]uint32) {
	_ = dst[26]
	dst[0] = src[0] | src[1]<<27
	dst[1] = src[1]>>5 | src[2]<<22
	dst[2] = src[2]>>10 | src[3]<<17
	dst[3] = src[3]>>15 | src[4]<<12
	dst[4] = src[4]>>20 | src[5]<<7
	dst[5] = src[5]>>25 | src[6]<<2 | src[7]<<29
	dst[6] = src[7]>>3 | src[8]<<24
	dst[7] = src[8]>>8 | src[9]<<19
	dst[8] = src[9]>>13 | src[10]<<14
	dst[9] = src[10]>>18 | src[11]<<9
	dst[10] = src[11]>>23 | src[12]<<4 | src[13]<<31
	dst[11] = src[13]>>1 | src[14]<<26
	dst[12] = src[14]>>6 | src[15]<<21
	dst[13] = src[15]>>11 | src[16]<<16
	dst[14] = src[16]>>16 | src[17]<<11
	dst[15] = src[17]>>21 | src[18]<<6
	dst[16] = src[18]>>26 | src[19]<<1 | src[20]<<28
	dst[17] = src[20]>>4 | src[21]<<23
	dst[18] = src[21]>>9 | src[22]<<18
	dst[19] = src[22]>>14 | src[23]<<13
	dst[20] = src[23]>>19 | src[24]<<8
	dst[21] = src[24]>>24 | src[25]<<3 | src[26]<<30
	dst[22] = src[26]>>2 | src[27]<<25
	dst[23] = src[27]>>7 | src[28]<<20
	dst[24] = src[28]>>12 | src[29]<<15
	dst[25] = src[29]>>17 | src[30]<<10
	dst[26] = src[30]>>22 | src[31]<<5
}

// pack32x28 packs 32 28-bit values from src[0:32] into dst[0:28].
func pack32x28(dst []uint32, src *[32]uint32) {
	_ = dst[27]
	dst[0] = src[0] | src[1]<<28
	dst[1] = src[1]>>4 | src[2]<<24
	dst[2] = src[2]>>8 | src[3]<<20
	dst[3] = src[3]>>12 | src[4]<<16
	dst[4] = src[4]>>16 | src[5]<<12
	dst[5] = src[5]>>20 | src[6]<<8
	dst[6] = src[6]>>24 | src[7]<<4
	dst[7] = src[8] | src[9]<<28
	dst[8] = src[9]>>4 | src[10]<<24
	dst[9] = src[10]>>8 | src[11]<<20
	dst[10] = src[11]>>12 | src[12]<<16
	dst[11] = src[12]>>16 | src[13]<<12
	dst[12] = src[13]>>20 | src[14]<<8
	dst[13] = src[14]>>24 | src[15]<<4
	dst[14] = src[16] | src[17]<<28
	dst[15] = src[17]>>4 | src[18]<<24
	dst[16] = src[18]>>8 | src[19]<<20
	dst[17] = src[19]>>12 | src[20]<<16
	dst[18] = src[20]>>16 | src[21]<<12
	dst[19] = src[21]>>20 | src[22]<<8
	dst[20] = src[22]>>24 | src[23]<<4
	dst[21] = src[24] | src[25]<<28
	dst[22] = src[25]>>4 | src[26]<<24
	dst[23] = src[26]>>8 | src[27]<<20
	dst[24] = src[27]>>12 | src[28]<<16
	dst[25] = src[28]>>16 | src[29]<<12
	dst[26] = src[29]>>20 | src[30]<<8
	dst[27] = src[30]>>24 | src[31]<<4
}

// pack32x29 packs 32 29-bit values from src[0:32] into dst[0:29].
func pack32x29(dst []uint32, src *[32]uint32) {
	_ = dst[28]
	dst[0] = src[0] | src[1]<<29
	dst[1] = src[1]>>3 | src[2]<<26
	dst[2] = src[2]>>6 | src[3]<<23
	dst[3] = src[3]>>9 | src[4]<<20
	dst[4] = src[4]>>12 | src[5]<<17
	dst[5] = src[5]>>15 | src[6]<<14
	dst[6] = src[6]>>18 | src[7]<<11
	dst[7] = src[7]>>21 | src[8]<<8
	dst[8] = src[8]>>24 | src[9]<<5
	dst[9] = src[9]>>27 | src[10]<<2 | src[11]<<31
	dst[10] = src[11]>>1 | src[12]<<28
	dst[11] = src[12]>>4 | src[13]<<25
	dst[12] = src[13]>>7 | src[14]<<22
	dst[13] = src[14]>>10 | src[15]<<19
	dst[14] = src[15]>>13 | src[16]<<16
	dst[15] = src[16]>>16 | src[17]<<13
	dst[16] = src[17]>>19 | src[18]<<10
	dst[17] = src[18]>>22 | src[19]<<7
	dst[18] = src[19]>>25 | src[20]<<4
	dst[19] = src[20]>>28 | src[21]<<1 | src[22]<<30
	dst[20] = src[22]>>2 | src[23]<<27
	dst[21] = src[23]>>5 | src[24]<<24
	dst[22] = src[24]>>8 | src[25]<<21
	dst[23] = src[25]>>11 | src[26]<<18
	dst[24] = src[26]>>14 | src[27]<<15
	dst[25] = src[27]>>17 | src[28]<<12
	dst[26] = src[28]>>20 | src[29]<<9
	dst[27] = src[29]>>23 | src[30]<<6
	dst[28] = src[30]>>26 | src[31]<<3
}

// pack32x30 packs 32 30-bit values from src[0:32] into dst[0:30].
func pack32x30(dst []uint32, src *[32]uint32) {
	_ = dst[29]
	dst[0] = src[0] | src[1]<<30
	dst[1] = src[1]>>2 | src[2]<<28
	dst[2] = src[2]>>4 | src[3]<<26
	dst[3] = src[3]>>6 | src[4]<<24
	dst[4] = src[4]>>8 | src[5]<<22
	dst[5] = src[5]>>10 | src[6]<<20
	dst[6] = src[6]>>12 | src[7]<<18
	dst[7] = src[7]>>14 | src[8]<<16
	dst[8] = src[8]>>16 | src[9]<<14
	dst[9] = src[9]>>18 | src[10]<<12
	dst[10] = src[10]>>20 | src[11]<<10
	dst[11] = src[11]>>22 | src[12]<<8
	dst[12] = src[12]>>24 | src[13]<<6
	dst[13] = src[13]>>26 | src[14]<<4
	dst[14] = src[14]>>28 | src[15]<<2
	dst[15] = src[16] | src[17]<<30
	dst[16] = src[17]>>2 | src[18]<<28
	dst[17] = src[18]>>4 | src[19]<<26
	dst[18] = src[19]>>6 | src[20]<<24
	dst[19] = src[20]>>8 | src[21]<<22
	dst[20] = src[21]>>10 | src[22]<<20
	dst[21] = src[22]>>12 | src[23]<<18
	dst[22] = src[23]>>14 | src[24]<<16
	dst[23] = src[24]>>16 | src[25]<<14
	dst[24] = src[25]>>18 | src[26]<<12
	dst[25] = src[26]>>20 | src[27]<<10
	dst[26] = src[27]>>22 | src[28]<<8
	dst[27] = src[28]>>24 | src[29]<<6
	dst[28] = src[29]>>26 | src[30]<<4
	dst[29] = src[30]>>28 | src[31]<<2
}

// pack32x31 packs 32 31-bit values from src[0:32] into dst[0:31].
func pack32x31(dst []uint32, src *[32]uint32) {
	_ = dst[30]
	dst[0] = src[0] | src[1]<<31
	dst[1] = src[1]>>1 | src[2]<<30
	dst[2] = src[2]>>2 | src[3]<<29
	dst[3] = src[3]>>3 | src[4]<<28
	dst[4] = src[4]>>4 | src[5]<<27
	dst[5] = src[5]>>5 | src[6]<<26
	dst[6] = src[6]>>6 | src[7]<<25
	dst[7] = src[7]>>7 | src[8]<<24
	dst[8] = src[8]>>8 | src[9]<<23
	dst[9] = src[9]>>9 | src[10]<<22
	dst[10] = src[10]>>10 | src[11]<<21
	dst[11] = src[11]>>11 | src[12]<<20
	dst[12] = src[12]>>12 | src[13]<<19
	dst[13] = src[13]>>13 | src[14]<<18
	dst[14] = src[14]>>14 | src[15]<<17
	dst[15] = src[15]>>15 | src[16]<<16
	dst[16] = src[16]>>16 | src[17]<<15
	dst[17] = src[17]>>17 | src[18]<<14
	dst[18] = src[18]>>18 | src[19]<<13
	dst[19] = src[19]>>19 | src[20]<<12
	dst[20] = src[20]>>20 | src[21]<<11
	dst[21] = src[21]>>21 | src[22]<<10
	dst[22] = src[22]>>22 | src[23]<<9
	dst[23] = src[23]>>23 | src[24]<<8
	dst[24] = src[24]>>24 | src[25]<<7
	dst[25] = src[25]>>25 | src[26]<<6
	dst[26] = src[26]>>26 | src[27]<<5
	dst[27] = src[27]>>27 | src[28]<<4
	dst[28] = src[28]>>28 | src[29]<<3
	dst[29] = src[29]>>29 | src[30]<<2
	dst[30] = src[30]>>30 | src[31]<<1
}

// pack32x32 copies 32 full-width values.
func pack32x32(dst []uint32, src *[32]uint32) {
	copy(dst[:32], src[:])
}

// selmask32x0 scans zero-bit codes (all zero): every group is either a
// full match or empty.
func selmask32x0(dst, src []uint32, lo, span uint32) {
	_ = src
	m := uint32(0)
	if inRange(0, lo, span) == 1 {
		m = ^uint32(0)
	}
	for g := range dst {
		dst[g] = m
	}
}

// selmask32x1 scans len(dst) groups of 32 1-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x1(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*1:]
		_ = s[0]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 1) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 2) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 3) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 4) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 5) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 6) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 7) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 8) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 9) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0] >> 10) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[0] >> 11) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[0] >> 12) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[0] >> 13) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[0] >> 14) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[0] >> 15) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[0] >> 16) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[0] >> 17) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[0] >> 18) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[0] >> 19) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[0] >> 20) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[0] >> 21) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[0] >> 22) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[0] >> 23) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[0] >> 24) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[0] >> 25) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[0] >> 26) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[0] >> 27) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[0] >> 28) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[0] >> 29) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[0] >> 30) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[0] >> 31
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x2 scans len(dst) groups of 32 2-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x2(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*2:]
		_ = s[1]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 2) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 4) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 6) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 8) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 10) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 12) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 14) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 16) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 18) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0] >> 20) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[0] >> 22) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[0] >> 24) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[0] >> 26) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[0] >> 28) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[0] >> 30
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[1] & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[1] >> 2) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[1] >> 4) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[1] >> 6) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[1] >> 8) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[1] >> 10) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[1] >> 12) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[1] >> 14) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[1] >> 16) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[1] >> 18) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[1] >> 20) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[1] >> 22) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[1] >> 24) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[1] >> 26) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[1] >> 28) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[1] >> 30
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x3 scans len(dst) groups of 32 3-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x3(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*3:]
		_ = s[2]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 3) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 6) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 9) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 12) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 15) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 18) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 21) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 24) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 27) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0]>>30 | s[1]<<2) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 1) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1] >> 4) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[1] >> 7) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[1] >> 10) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[1] >> 13) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[1] >> 16) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[1] >> 19) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[1] >> 22) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[1] >> 25) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[1] >> 28) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[1]>>31 | s[2]<<1) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[2] >> 2) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[2] >> 5) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[2] >> 8) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[2] >> 11) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[2] >> 14) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[2] >> 17) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[2] >> 20) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[2] >> 23) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[2] >> 26) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[2] >> 29
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x4 scans len(dst) groups of 32 4-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x4(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*4:]
		_ = s[3]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 4) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 8) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 12) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 16) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 20) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 24) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[0] >> 28
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[1] & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[1] >> 4) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[1] >> 8) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 12) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1] >> 16) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[1] >> 20) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[1] >> 24) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[1] >> 28
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[2] & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[2] >> 4) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[2] >> 8) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[2] >> 12) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[2] >> 16) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[2] >> 20) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[2] >> 24) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[2] >> 28
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[3] & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[3] >> 4) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[3] >> 8) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[3] >> 12) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[3] >> 16) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[3] >> 20) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[3] >> 24) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[3] >> 28
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x5 scans len(dst) groups of 32 5-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x5(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*5:]
		_ = s[4]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 5) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 10) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 15) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 20) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 25) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0]>>30 | s[1]<<2) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[1] >> 3) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[1] >> 8) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[1] >> 13) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[1] >> 18) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 23) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1]>>28 | s[2]<<4) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[2] >> 1) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[2] >> 6) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[2] >> 11) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[2] >> 16) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[2] >> 21) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[2] >> 26) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[2]>>31 | s[3]<<1) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[3] >> 4) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[3] >> 9) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[3] >> 14) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[3] >> 19) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[3] >> 24) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[3]>>29 | s[4]<<3) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[4] >> 2) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[4] >> 7) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[4] >> 12) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[4] >> 17) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[4] >> 22) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[4] >> 27
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x6 scans len(dst) groups of 32 6-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x6(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 6)
	hs := h - l
	ll, hh := uint64(l)*0x1001001001001, uint64(h)*0x1001001001001|0x40040040040040
	for g := range dst {
		s := src[g*6:]
		_ = s[5]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-9
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3F03F03F03F03F
		o = x0 >> 6 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		p, _ = bits.Mul64(e|o<<1, 0x401004010040000)
		m0 |= uint32(p) & 0x3FF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x3F
		m1 |= uint32(inRange(v, l, hs)) << 10
		// codes 11-20
		e = x1 >> 2 & 0x3F03F03F03F03F
		o = x1 >> 8 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		m2 |= uint32(((e|o<<1)*0x10040100401)>>35) & 0x1FF800
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x3F
		m3 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-31
		e = x2 >> 4 & 0x3F03F03F03F03F
		o = x2 >> 10 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		m0 |= uint32(((e|o<<1)*0x10040100401)>>24) & 0xFFC00000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x7 scans len(dst) groups of 32 7-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x7(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 7)
	hs := h - l
	ll, hh := uint64(l)*0x100040010004001, uint64(h)*0x100040010004001|0x8002000800200080
	for g := range dst {
		s := src[g*7:]
		_ = s[6]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-8
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7F01FC07F01FC07F
		o = x0 >> 7 & 0x7F01FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x8002000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		p, _ = bits.Mul64(e|o<<1, 0x200200200200200)
		m0 |= uint32(p) & 0x1FF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>63|x1<<1) & 0x7F
		m1 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-17
		e = x1 >> 6 & 0x1FC07F01FC07F
		o = x1 >> 13 & 0x1FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x2000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		m2 |= uint32(((e|o<<1)*0x1001001001)>>33) & 0x3FC00
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x7F
		m3 |= uint32(inRange(v, l, hs)) << 18
		// codes 19-26
		e = x2 >> 5 & 0x1FC07F01FC07F
		o = x2 >> 12 & 0x1FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x2000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		m0 |= uint32(((e|o<<1)*0x1001001001)>>24) & 0x7F80000
		x3 := uint64(s[6])
		v = uint32(x2>>61|x3<<3) & 0x7F
		m1 |= uint32(inRange(v, l, hs)) << 27
		// codes 28-31
		e = x3 >> 4 & 0x1FC07F
		o = x3 >> 11 & 0x1FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x200080
		m2 |= uint32((e|o<<1)*0x200200) & 0xF0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x8 scans len(dst) groups of 32 8-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x8(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 8)
	ll, hh := uint64(l)*0x1000100010001, uint64(h)*0x1000100010001|0x100010001000100
	for g := range dst {
		s := src[g*8:]
		_ = s[7]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		// codes 0-7
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFF00FF00FF00FF
		o = x0 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		p, _ = bits.Mul64(e|o<<1, 0x100040010004000)
		m0 |= uint32(p) & 0xFF
		// codes 8-15
		x1 := uint64(s[2]) | uint64(s[3])<<32
		e = x1 & 0xFF00FF00FF00FF
		o = x1 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m1 |= uint32(((e|o<<1)*0x40010004001)>>42) & 0xFF00
		// codes 16-23
		x2 := uint64(s[4]) | uint64(s[5])<<32
		e = x2 & 0xFF00FF00FF00FF
		o = x2 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m2 |= uint32(((e|o<<1)*0x40010004001)>>34) & 0xFF0000
		// codes 24-31
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFF00FF00FF00FF
		o = x3 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m3 |= uint32(((e|o<<1)*0x40010004001)>>26) & 0xFF000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x9 scans len(dst) groups of 32 9-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x9(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 9)
	hs := h - l
	ll, hh := uint64(l)*0x40001000040001, uint64(h)*0x40001000040001|0x8000200008000200
	for g := range dst {
		s := src[g*9:]
		_ = s[8]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-6
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FC01FF007FC01FF
		o = x0 >> 9 & 0x7FC01FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x8000200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		p, _ = bits.Mul64(e|o<<1, 0x80008000800080)
		m0 |= uint32(p) & 0x7F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>63|x1<<1) & 0x1FF
		m1 |= uint32(inRange(v, l, hs)) << 7
		// codes 8-13
		e = x1 >> 8 & 0x1FF007FC01FF
		o = x1 >> 17 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		p, _ = bits.Mul64(e|o<<1, 0x8000800080000000)
		m2 |= uint32(p) & 0x3F00
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x1FF
		m3 |= uint32(inRange(v, l, hs)) << 14
		// codes 15-20
		e = x2 >> 7 & 0x1FF007FC01FF
		o = x2 >> 16 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		m0 |= uint32(((e|o<<1)*0x100010001)>>26) & 0x1F8000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>61|x3<<3) & 0x1FF
		m1 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-27
		e = x3 >> 6 & 0x1FF007FC01FF
		o = x3 >> 15 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		m2 |= uint32(((e|o<<1)*0x100010001)>>19) & 0xFC00000
		x4 := uint64(s[8])
		v = uint32(x3>>60|x4<<4) & 0x1FF
		m3 |= uint32(inRange(v, l, hs)) << 28
		// codes 29-31
		e = x4 >> 5 & 0x7FC01FF
		o = x4 >> 14 & 0x7FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x8000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200
		m0 |= uint32((e|o<<1)*0x100010) & 0xE0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x10 scans len(dst) groups of 32 10-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x10(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 10)
	hs := h - l
	ll, hh := uint64(l)*0x10000100001, uint64(h)*0x10000100001|0x4000040000400
	for g := range dst {
		s := src[g*10:]
		_ = s[9]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-5
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3FF003FF003FF
		o = x0 >> 10 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		p, _ = bits.Mul64(e|o<<1, 0x40001000040000)
		m0 |= uint32(p) & 0x3F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x3FF
		m1 |= uint32(inRange(v, l, hs)) << 6
		// codes 7-11
		e = x1 >> 6 & 0x3FF003FF003FF
		o = x1 >> 16 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x40000400
		p, _ = bits.Mul64(e|o<<1, 0x2000080002000000)
		m2 |= uint32(p) & 0xF80
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0x3FF
		m3 |= uint32(inRange(v, l, hs)) << 12
		// codes 13-18
		e = x2 >> 2 & 0x3FF003FF003FF
		o = x2 >> 12 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		m0 |= uint32(((e|o<<1)*0x1000040001)>>33) & 0x7E000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>62|x3<<2) & 0x3FF
		m1 |= uint32(inRange(v, l, hs)) << 19
		// codes 20-24
		e = x3 >> 8 & 0x3FF003FF003FF
		o = x3 >> 18 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x40000400
		m2 |= uint32(((e|o<<1)*0x1000040001)>>26) & 0x1F00000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>58|x4<<6) & 0x3FF
		m3 |= uint32(inRange(v, l, hs)) << 25
		// codes 26-31
		e = x4 >> 4 & 0x3FF003FF003FF
		o = x4 >> 14 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		m0 |= uint32(((e|o<<1)*0x1000040001)>>20) & 0xFC000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x11 scans len(dst) groups of 32 11-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x11(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 11)
	hs := h - l
	ll, hh := uint64(l)*0x100000400001, uint64(h)*0x100000400001|0x80000200000800
	for g := range dst {
		s := src[g*11:]
		_ = s[10]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-4
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FF001FFC007FF
		o = x0 >> 11 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		p, _ = bits.Mul64(e|o<<1, 0x20000200002000)
		m0 |= uint32(p) & 0x1F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>55|x1<<9) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 5
		// codes 6-10
		e = x1 >> 2 & 0x7FF001FFC007FF
		o = x1 >> 13 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		p, _ = bits.Mul64(e|o<<1, 0x800008000080000)
		m2 |= uint32(p) & 0x7C0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>57|x2<<7) & 0x7FF
		m3 |= uint32(inRange(v, l, hs)) << 11
		// codes 12-16
		e = x2 >> 4 & 0x7FF001FFC007FF
		o = x2 >> 15 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m0 |= uint32(((e|o<<1)*0x10000100001)>>39) & 0x1F000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>59|x3<<5) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 17
		// codes 18-22
		e = x3 >> 6 & 0x7FF001FFC007FF
		o = x3 >> 17 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m2 |= uint32(((e|o<<1)*0x10000100001)>>33) & 0x7C0000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>61|x4<<3) & 0x7FF
		m3 |= uint32(inRange(v, l, hs)) << 23
		// codes 24-28
		e = x4 >> 8 & 0x7FF001FFC007FF
		o = x4 >> 19 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m0 |= uint32(((e|o<<1)*0x10000100001)>>27) & 0x1F000000
		x5 := uint64(s[10])
		v = uint32(x4>>63|x5<<1) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x5 >> 10 & 0x7FF
		o = x5 >> 21 & 0x7FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x800
		m2 |= uint32((e|o<<1)*0x80000) & 0xC0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x12 scans len(dst) groups of 32 12-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x12(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 12)
	hs := h - l
	ll, hh := uint64(l)*0x1000001000001, uint64(h)*0x1000001000001|0x1000001000001000
	for g := range dst {
		s := src[g*12:]
		_ = s[11]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-4
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFFF000FFF000FFF
		o = x0 >> 12 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x10000040000100)
		m0 |= uint32(p) & 0x1F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0xFFF
		m1 |= uint32(inRange(v, l, hs)) << 5
		// codes 6-9
		e = x1 >> 8 & 0xFFF000FFF
		o = x1 >> 20 & 0xFFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x400001000000000)
		m2 |= uint32(p) & 0x3C0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0xFFF
		m3 |= uint32(inRange(v, l, hs)) << 10
		// codes 11-15
		e = x2 >> 4 & 0xFFF000FFF000FFF
		o = x2 >> 16 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x8000020000080000)
		m0 |= uint32(p) & 0xF800
		// codes 16-20
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFFF000FFF000FFF
		o = x3 >> 12 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m1 |= uint32(((e|o<<1)*0x100000400001)>>40) & 0x1F0000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>60|x4<<4) & 0xFFF
		m2 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-25
		e = x4 >> 8 & 0xFFF000FFF
		o = x4 >> 20 & 0xFFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m3 |= uint32(((e|o<<1)*0x400001)>>12) & 0x3C00000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>56|x5<<8) & 0xFFF
		m0 |= uint32(inRange(v, l, hs)) << 26
		// codes 27-31
		e = x5 >> 4 & 0xFFF000FFF000FFF
		o = x5 >> 16 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m1 |= uint32(((e|o<<1)*0x100000400001)>>29) & 0xF8000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x13 scans len(dst) groups of 32 13-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x13(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 13)
	hs := h - l
	ll, hh := uint64(l)*0x4000001, uint64(h)*0x4000001|0x8000002000
	for g := range dst {
		s := src[g*13:]
		_ = s[12]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FFC001FFF
		o = x0 >> 13 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x8000008000000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>52|x1<<12) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-8
		e = x1 >> 1 & 0x7FFC001FFF
		o = x1 >> 14 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x100000100000000)
		m2 |= uint32(p) & 0x1E0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>53|x2<<11) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-13
		e = x2 >> 2 & 0x7FFC001FFF
		o = x2 >> 15 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x2000002000000000)
		m0 |= uint32(p) & 0x3C00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>54|x3<<10) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 14
		// codes 15-18
		e = x3 >> 3 & 0x7FFC001FFF
		o = x3 >> 16 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m2 |= uint32(((e|o<<1)*0x1000001)>>22) & 0x78000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>55|x4<<9) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 19
		// codes 20-23
		e = x4 >> 4 & 0x7FFC001FFF
		o = x4 >> 17 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m0 |= uint32(((e|o<<1)*0x1000001)>>17) & 0xF00000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>56|x5<<8) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 24
		// codes 25-28
		e = x5 >> 5 & 0x7FFC001FFF
		o = x5 >> 18 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m2 |= uint32(((e|o<<1)*0x1000001)>>12) & 0x1E000000
		x6 := uint64(s[12])
		v = uint32(x5>>57|x6<<7) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x6 >> 6 & 0x1FFF
		o = x6 >> 19 & 0x1FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x2000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x2000
		m0 |= uint32((e|o<<1)*0x20000) & 0xC0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x14 scans len(dst) groups of 32 14-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x14(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 14)
	hs := h - l
	ll, hh := uint64(l)*0x10000001, uint64(h)*0x10000001|0x40000004000
	for g := range dst {
		s := src[g*14:]
		_ = s[13]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3FFF0003FFF
		o = x0 >> 14 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		p, _ = bits.Mul64(e|o<<1, 0x4000001000000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>56|x1<<8) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-8
		e = x1 >> 6 & 0x3FFF0003FFF
		o = x1 >> 20 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		p, _ = bits.Mul64(e|o<<1, 0x80000020000000)
		m2 |= uint32(p) & 0x1E0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-12
		e = x2 >> 12 & 0x3FFF0003FFF
		o = x2 >> 26 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x4000
		p, _ = bits.Mul64(e|o<<1, 0x1000000400000000)
		m0 |= uint32(p) & 0x1C00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>54|x3<<10) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 13
		// codes 14-17
		e = x3 >> 4 & 0x3FFF0003FFF
		o = x3 >> 18 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m2 |= uint32(((e|o<<1)*0x4000001)>>26) & 0x3C000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>60|x4<<4) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 18
		// codes 19-21
		e = x4 >> 10 & 0x3FFF0003FFF
		o = x4 >> 24 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x4000
		m0 |= uint32(((e|o<<1)*0x4000001)>>21) & 0x380000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>52|x5<<12) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 22
		// codes 23-26
		e = x5 >> 2 & 0x3FFF0003FFF
		o = x5 >> 16 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m2 |= uint32(((e|o<<1)*0x4000001)>>17) & 0x7800000
		x6 := uint64(s[12]) | uint64(s[13])<<32
		v = uint32(x5>>58|x6<<6) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 27
		// codes 28-31
		e = x6 >> 8 & 0x3FFF0003FFF
		o = x6 >> 22 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m0 |= uint32(((e|o<<1)*0x4000001)>>12) & 0xF0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x15 scans len(dst) groups of 32 15-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x15(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 15)
	hs := h - l
	ll, hh := uint64(l)*0x40000001, uint64(h)*0x40000001|0x200000008000
	for g := range dst {
		s := src[g*15:]
		_ = s[14]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x1FFFC0007FFF
		o = x0 >> 15 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x200000008000
		p, _ = bits.Mul64(e|o<<1, 0x2000000200000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-7
		e = x1 >> 11 & 0x1FFFC0007FFF
		o = x1 >> 26 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		p, _ = bits.Mul64(e|o<<1, 0x40000004000000)
		m2 |= uint32(p) & 0xE0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 8
		// codes 9-11
		e = x2 >> 7 & 0x1FFFC0007FFF
		o = x2 >> 22 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		p, _ = bits.Mul64(e|o<<1, 0x400000040000000)
		m0 |= uint32(p) & 0xE00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>52|x3<<12) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 12
		// codes 13-16
		e = x3 >> 3 & 0x1FFFC0007FFF
		o = x3 >> 18 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x200000008000
		p, _ = bits.Mul64(e|o<<1, 0x4000000400000000)
		m2 |= uint32(p) & 0x1E000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>63|x4<<1) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 17
		// codes 18-20
		e = x4 >> 14 & 0x1FFFC0007FFF
		o = x4 >> 29 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m0 |= uint32(((e|o<<1)*0x10000001)>>25) & 0x1C0000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>59|x5<<5) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-24
		e = x5 >> 10 & 0x1FFFC0007FFF
		o = x5 >> 25 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m2 |= uint32(((e|o<<1)*0x10000001)>>21) & 0x1C00000
		x6 := uint64(s[12]) | uint64(s[13])<<32
		v = uint32(x5>>55|x6<<9) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 25
		// codes 26-28
		e = x6 >> 6 & 0x1FFFC0007FFF
		o = x6 >> 21 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m0 |= uint32(((e|o<<1)*0x10000001)>>17) & 0x1C000000
		x7 := uint64(s[14])
		v = uint32(x6>>51|x7<<13) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x7 >> 2 & 0x7FFF
		o = x7 >> 17 & 0x7FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x8000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m2 |= uint32((e|o<<1)*0x8000) & 0xC0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x16 scans len(dst) groups of 32 16-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe). Codes are
// compared in place, a 64-bit chunk at a time.
func selmask32x16(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 16)
	ll, hh := uint64(l)*0x100000001, uint64(h)*0x100000001|0x1000000010000
	for g := range dst {
		s := src[g*16:]
		_ = s[15]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFFFF0000FFFF
		o = x0 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x1000000040000)
		m0 |= uint32(p) & 0xF
		// codes 4-7
		x1 := uint64(s[2]) | uint64(s[3])<<32
		e = x1 & 0xFFFF0000FFFF
		o = x1 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x10000000400000)
		m1 |= uint32(p) & 0xF0
		// codes 8-11
		x2 := uint64(s[4]) | uint64(s[5])<<32
		e = x2 & 0xFFFF0000FFFF
		o = x2 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x100000004000000)
		m2 |= uint32(p) & 0xF00
		// codes 12-15
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFFFF0000FFFF
		o = x3 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x1000000040000000)
		m3 |= uint32(p) & 0xF000
		// codes 16-19
		x4 := uint64(s[8]) | uint64(s[9])<<32
		e = x4 & 0xFFFF0000FFFF
		o = x4 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m0 |= uint32(((e|o<<1)*0x40000001)>>30) & 0xF0000
		// codes 20-23
		x5 := uint64(s[10]) | uint64(s[11])<<32
		e = x5 & 0xFFFF0000FFFF
		o = x5 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m1 |= uint32(((e|o<<1)*0x40000001)>>26) & 0xF00000
		// codes 24-27
		x6 := uint64(s[12]) | uint64(s[13])<<32
		e = x6 & 0xFFFF0000FFFF
		o = x6 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m2 |= uint32(((e|o<<1)*0x40000001)>>22) & 0xF000000
		// codes 28-31
		x7 := uint64(s[14]) | uint64(s[15])<<32
		e = x7 & 0xFFFF0000FFFF
		o = x7 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m3 |= uint32(((e|o<<1)*0x40000001)>>18) & 0xF0000000
		dst[g] = (m0 | m1 | m2 | m3) ^ flip
	}
}

// selmask32x17 scans len(dst) groups of 32 17-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x17(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*17:]
		_ = s[16]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>17 | s[1]<<15) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 2) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>19 | s[2]<<13) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 4) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>21 | s[3]<<11) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3] >> 6) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[3]>>23 | s[4]<<9) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4] >> 8) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[4]>>25 | s[5]<<7) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5] >> 10) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[5]>>27 | s[6]<<5) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[6] >> 12) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[6]>>29 | s[7]<<3) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[7] >> 14) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[7]>>31 | s[8]<<1) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[8]>>16 | s[9]<<16) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[9] >> 1) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[9]>>18 | s[10]<<14) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[10] >> 3) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[10]>>20 | s[11]<<12) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[11] >> 5) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[11]>>22 | s[12]<<10) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[12] >> 7) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[12]>>24 | s[13]<<8) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[13] >> 9) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[13]>>26 | s[14]<<6) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[14] >> 11) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[14]>>28 | s[15]<<4) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[15] >> 13) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[15]>>30 | s[16]<<2) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[16] >> 15
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x18 scans len(dst) groups of 32 18-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x18(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*18:]
		_ = s[17]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>18 | s[1]<<14) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 4) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>22 | s[2]<<10) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 8) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>26 | s[3]<<6) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3] >> 12) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[3]>>30 | s[4]<<2) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4]>>16 | s[5]<<16) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5] >> 2) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5]>>20 | s[6]<<12) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6] >> 6) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[6]>>24 | s[7]<<8) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[7] >> 10) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[7]>>28 | s[8]<<4) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[8] >> 14
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[9] & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[9]>>18 | s[10]<<14) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[10] >> 4) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[10]>>22 | s[11]<<10) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[11] >> 8) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[11]>>26 | s[12]<<6) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[12] >> 12) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[12]>>30 | s[13]<<2) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[13]>>16 | s[14]<<16) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[14] >> 2) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[14]>>20 | s[15]<<12) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[15] >> 6) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[15]>>24 | s[16]<<8) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[16] >> 10) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[16]>>28 | s[17]<<4) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[17] >> 14
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x19 scans len(dst) groups of 32 19-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x19(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*19:]
		_ = s[18]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>19 | s[1]<<13) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 6) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>25 | s[2]<<7) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 12) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>31 | s[3]<<1) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>18 | s[4]<<14) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4] >> 5) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4]>>24 | s[5]<<8) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5] >> 11) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5]>>30 | s[6]<<2) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6]>>17 | s[7]<<15) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7] >> 4) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[7]>>23 | s[8]<<9) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[8] >> 10) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[8]>>29 | s[9]<<3) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[9]>>16 | s[10]<<16) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[10] >> 3) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[10]>>22 | s[11]<<10) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[11] >> 9) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[11]>>28 | s[12]<<4) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[12]>>15 | s[13]<<17) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[13] >> 2) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[13]>>21 | s[14]<<11) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[14] >> 8) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[14]>>27 | s[15]<<5) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[15]>>14 | s[16]<<18) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[16] >> 1) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[16]>>20 | s[17]<<12) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[17] >> 7) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[17]>>26 | s[18]<<6) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[18] >> 13
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x20 scans len(dst) groups of 32 20-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x20(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*20:]
		_ = s[19]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>20 | s[1]<<12) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 8) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>28 | s[2]<<4) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>16 | s[3]<<16) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3] >> 4) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>24 | s[4]<<8) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[4] >> 12
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[5] & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5]>>20 | s[6]<<12) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6] >> 8) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6]>>28 | s[7]<<4) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7]>>16 | s[8]<<16) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8] >> 4) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[8]>>24 | s[9]<<8) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[9] >> 12
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[10] & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[10]>>20 | s[11]<<12) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[11] >> 8) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[11]>>28 | s[12]<<4) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[12]>>16 | s[13]<<16) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[13] >> 4) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[13]>>24 | s[14]<<8) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[14] >> 12
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[15] & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[15]>>20 | s[16]<<12) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[16] >> 8) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[16]>>28 | s[17]<<4) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[17]>>16 | s[18]<<16) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[18] >> 4) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[18]>>24 | s[19]<<8) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[19] >> 12
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x21 scans len(dst) groups of 32 21-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x21(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*21:]
		_ = s[20]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>21 | s[1]<<11) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 10) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>31 | s[2]<<1) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>20 | s[3]<<12) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3] >> 9) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>30 | s[4]<<2) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4]>>19 | s[5]<<13) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5] >> 8) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5]>>29 | s[6]<<3) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6]>>18 | s[7]<<14) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7] >> 7) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7]>>28 | s[8]<<4) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8]>>17 | s[9]<<15) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[9] >> 6) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[9]>>27 | s[10]<<5) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[10]>>16 | s[11]<<16) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[11] >> 5) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[11]>>26 | s[12]<<6) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[12]>>15 | s[13]<<17) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[13] >> 4) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[13]>>25 | s[14]<<7) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[14]>>14 | s[15]<<18) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[15] >> 3) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[15]>>24 | s[16]<<8) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[16]>>13 | s[17]<<19) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[17] >> 2) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[17]>>23 | s[18]<<9) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[18]>>12 | s[19]<<20) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[19] >> 1) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[19]>>22 | s[20]<<10) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[20] >> 11
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x22 scans len(dst) groups of 32 22-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x22(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*22:]
		_ = s[21]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>22 | s[1]<<10) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>12 | s[2]<<20) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2] >> 2) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>24 | s[3]<<8) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>14 | s[4]<<18) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4] >> 4) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4]>>26 | s[5]<<6) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5]>>16 | s[6]<<16) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6] >> 6) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6]>>28 | s[7]<<4) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7]>>18 | s[8]<<14) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[8] >> 8) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8]>>30 | s[9]<<2) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[9]>>20 | s[10]<<12) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[10] >> 10
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[11] & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[11]>>22 | s[12]<<10) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[12]>>12 | s[13]<<20) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[13] >> 2) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[13]>>24 | s[14]<<8) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[14]>>14 | s[15]<<18) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[15] >> 4) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[15]>>26 | s[16]<<6) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[16]>>16 | s[17]<<16) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[17] >> 6) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[17]>>28 | s[18]<<4) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[18]>>18 | s[19]<<14) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[19] >> 8) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[19]>>30 | s[20]<<2) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[20]>>20 | s[21]<<12) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[21] >> 10
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x23 scans len(dst) groups of 32 23-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x23(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*23:]
		_ = s[22]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>23 | s[1]<<9) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>14 | s[2]<<18) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2] >> 5) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>28 | s[3]<<4) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>19 | s[4]<<13) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>10 | s[5]<<22) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5] >> 1) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5]>>24 | s[6]<<8) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6]>>15 | s[7]<<17) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7] >> 6) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7]>>29 | s[8]<<3) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[8]>>20 | s[9]<<12) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[9]>>11 | s[10]<<21) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10] >> 2) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[10]>>25 | s[11]<<7) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[11]>>16 | s[12]<<16) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[12] >> 7) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[12]>>30 | s[13]<<2) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[13]>>21 | s[14]<<11) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[14]>>12 | s[15]<<20) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[15] >> 3) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[15]>>26 | s[16]<<6) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[16]>>17 | s[17]<<15) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[17] >> 8) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[17]>>31 | s[18]<<1) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[18]>>22 | s[19]<<10) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[19]>>13 | s[20]<<19) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[20] >> 4) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[20]>>27 | s[21]<<5) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[21]>>18 | s[22]<<14) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[22] >> 9
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x24 scans len(dst) groups of 32 24-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x24(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*24:]
		_ = s[23]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>24 | s[1]<<8) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>16 | s[2]<<16) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = s[2] >> 8
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = s[3] & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>24 | s[4]<<8) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>16 | s[5]<<16) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[5] >> 8
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[6] & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6]>>24 | s[7]<<8) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7]>>16 | s[8]<<16) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = s[8] >> 8
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = s[9] & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[9]>>24 | s[10]<<8) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10]>>16 | s[11]<<16) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[11] >> 8
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[12] & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[12]>>24 | s[13]<<8) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[13]>>16 | s[14]<<16) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = s[14] >> 8
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = s[15] & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[15]>>24 | s[16]<<8) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[16]>>16 | s[17]<<16) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[17] >> 8
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[18] & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[18]>>24 | s[19]<<8) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[19]>>16 | s[20]<<16) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = s[20] >> 8
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = s[21] & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[21]>>24 | s[22]<<8) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[22]>>16 | s[23]<<16) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[23] >> 8
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x25 scans len(dst) groups of 32 25-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x25(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*25:]
		_ = s[24]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>25 | s[1]<<7) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>18 | s[2]<<14) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>11 | s[3]<<21) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3] >> 4) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>29 | s[4]<<3) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>22 | s[5]<<10) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>15 | s[6]<<17) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>8 | s[7]<<24) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7] >> 1) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7]>>26 | s[8]<<6) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[8]>>19 | s[9]<<13) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[9]>>12 | s[10]<<20) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10] >> 5) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10]>>30 | s[11]<<2) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[11]>>23 | s[12]<<9) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[12]>>16 | s[13]<<16) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[13]>>9 | s[14]<<23) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[14] >> 2) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[14]>>27 | s[15]<<5) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[15]>>20 | s[16]<<12) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[16]>>13 | s[17]<<19) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[17] >> 6) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[17]>>31 | s[18]<<1) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[18]>>24 | s[19]<<8) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[19]>>17 | s[20]<<15) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[20]>>10 | s[21]<<22) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[21] >> 3) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[21]>>28 | s[22]<<4) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[22]>>21 | s[23]<<11) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[23]>>14 | s[24]<<18) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[24] >> 7
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x26 scans len(dst) groups of 32 26-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x26(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*26:]
		_ = s[25]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>26 | s[1]<<6) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>20 | s[2]<<12) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>14 | s[3]<<18) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>8 | s[4]<<24) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4] >> 2) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>28 | s[5]<<4) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>22 | s[6]<<10) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>16 | s[7]<<16) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>10 | s[8]<<22) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8] >> 4) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[8]>>30 | s[9]<<2) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[9]>>24 | s[10]<<8) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10]>>18 | s[11]<<14) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[11]>>12 | s[12]<<20) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[12] >> 6
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[13] & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[13]>>26 | s[14]<<6) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[14]>>20 | s[15]<<12) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[15]>>14 | s[16]<<18) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[16]>>8 | s[17]<<24) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[17] >> 2) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[17]>>28 | s[18]<<4) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[18]>>22 | s[19]<<10) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[19]>>16 | s[20]<<16) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[20]>>10 | s[21]<<22) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[21] >> 4) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[21]>>30 | s[22]<<2) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[22]>>24 | s[23]<<8) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[23]>>18 | s[24]<<14) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[24]>>12 | s[25]<<20) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[25] >> 6
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x27 scans len(dst) groups of 32 27-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x27(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*27:]
		_ = s[26]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>27 | s[1]<<5) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>22 | s[2]<<10) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>17 | s[3]<<15) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>12 | s[4]<<20) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>7 | s[5]<<25) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5] >> 2) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>29 | s[6]<<3) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>24 | s[7]<<8) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>19 | s[8]<<13) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8]>>14 | s[9]<<18) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>9 | s[10]<<23) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10] >> 4) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10]>>31 | s[11]<<1) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[11]>>26 | s[12]<<6) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[12]>>21 | s[13]<<11) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[13]>>16 | s[14]<<16) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[14]>>11 | s[15]<<21) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[15]>>6 | s[16]<<26) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[16] >> 1) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[16]>>28 | s[17]<<4) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[17]>>23 | s[18]<<9) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[18]>>18 | s[19]<<14) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[19]>>13 | s[20]<<19) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[20]>>8 | s[21]<<24) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[21] >> 3) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[21]>>30 | s[22]<<2) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[22]>>25 | s[23]<<7) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[23]>>20 | s[24]<<12) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[24]>>15 | s[25]<<17) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[25]>>10 | s[26]<<22) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[26] >> 5
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x28 scans len(dst) groups of 32 28-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x28(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*28:]
		_ = s[27]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>28 | s[1]<<4) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>24 | s[2]<<8) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>20 | s[3]<<12) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>16 | s[4]<<16) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>12 | s[5]<<20) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>8 | s[6]<<24) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[6] >> 4
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[7] & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>28 | s[8]<<4) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8]>>24 | s[9]<<8) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>20 | s[10]<<12) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10]>>16 | s[11]<<16) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[11]>>12 | s[12]<<20) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[12]>>8 | s[13]<<24) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[13] >> 4
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[14] & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[14]>>28 | s[15]<<4) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[15]>>24 | s[16]<<8) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[16]>>20 | s[17]<<12) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[17]>>16 | s[18]<<16) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[18]>>12 | s[19]<<20) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[19]>>8 | s[20]<<24) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[20] >> 4
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[21] & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[21]>>28 | s[22]<<4) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[22]>>24 | s[23]<<8) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[23]>>20 | s[24]<<12) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[24]>>16 | s[25]<<16) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[25]>>12 | s[26]<<20) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[26]>>8 | s[27]<<24) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[27] >> 4
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x29 scans len(dst) groups of 32 29-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x29(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*29:]
		_ = s[28]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>29 | s[1]<<3) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>26 | s[2]<<6) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>23 | s[3]<<9) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>20 | s[4]<<12) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>17 | s[5]<<15) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>14 | s[6]<<18) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>11 | s[7]<<21) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>8 | s[8]<<24) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>5 | s[9]<<27) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9] >> 2) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>31 | s[10]<<1) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10]>>28 | s[11]<<4) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[11]>>25 | s[12]<<7) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[12]>>22 | s[13]<<10) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[13]>>19 | s[14]<<13) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[14]>>16 | s[15]<<16) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[15]>>13 | s[16]<<19) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[16]>>10 | s[17]<<22) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[17]>>7 | s[18]<<25) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[18]>>4 | s[19]<<28) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[19] >> 1) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[19]>>30 | s[20]<<2) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[20]>>27 | s[21]<<5) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[21]>>24 | s[22]<<8) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[22]>>21 | s[23]<<11) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[23]>>18 | s[24]<<14) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[24]>>15 | s[25]<<17) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[25]>>12 | s[26]<<20) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[26]>>9 | s[27]<<23) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[27]>>6 | s[28]<<26) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[28] >> 3
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x30 scans len(dst) groups of 32 30-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x30(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*30:]
		_ = s[29]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>30 | s[1]<<2) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>28 | s[2]<<4) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>26 | s[3]<<6) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>24 | s[4]<<8) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>22 | s[5]<<10) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>20 | s[6]<<12) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>18 | s[7]<<14) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>16 | s[8]<<16) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>14 | s[9]<<18) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9]>>12 | s[10]<<20) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[10]>>10 | s[11]<<22) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[11]>>8 | s[12]<<24) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[12]>>6 | s[13]<<26) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[13]>>4 | s[14]<<28) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[14] >> 2
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[15] & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[15]>>30 | s[16]<<2) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[16]>>28 | s[17]<<4) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[17]>>26 | s[18]<<6) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[18]>>24 | s[19]<<8) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[19]>>22 | s[20]<<10) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[20]>>20 | s[21]<<12) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[21]>>18 | s[22]<<14) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[22]>>16 | s[23]<<16) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[23]>>14 | s[24]<<18) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[24]>>12 | s[25]<<20) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[25]>>10 | s[26]<<22) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[26]>>8 | s[27]<<24) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[27]>>6 | s[28]<<26) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[28]>>4 | s[29]<<28) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[29] >> 2
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x31 scans len(dst) groups of 32 31-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x31(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*31:]
		_ = s[30]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>31 | s[1]<<1) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>30 | s[2]<<2) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>29 | s[3]<<3) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>28 | s[4]<<4) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>27 | s[5]<<5) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>26 | s[6]<<6) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>25 | s[7]<<7) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>24 | s[8]<<8) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>23 | s[9]<<9) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9]>>22 | s[10]<<10) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[10]>>21 | s[11]<<11) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[11]>>20 | s[12]<<12) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[12]>>19 | s[13]<<13) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[13]>>18 | s[14]<<14) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[14]>>17 | s[15]<<15) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[15]>>16 | s[16]<<16) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[16]>>15 | s[17]<<17) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[17]>>14 | s[18]<<18) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[18]>>13 | s[19]<<19) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[19]>>12 | s[20]<<20) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[20]>>11 | s[21]<<21) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[21]>>10 | s[22]<<22) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[22]>>9 | s[23]<<23) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[23]>>8 | s[24]<<24) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[24]>>7 | s[25]<<25) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[25]>>6 | s[26]<<26) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[26]>>5 | s[27]<<27) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[27]>>4 | s[28]<<28) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[28]>>3 | s[29]<<29) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[29]>>2 | s[30]<<30) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[30] >> 1
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// selmask32x32 scans len(dst) groups of 32 32-bit codes from src and
// writes one match mask per group: bit i of dst[g] is set iff code
// g*32+i lies in [lo, lo+span] (unsigned, wrap-safe).
func selmask32x32(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		s := src[g*32:]
		_ = s[31]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0]
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = s[1]
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = s[2]
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = s[3]
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = s[4]
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = s[5]
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = s[6]
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[7]
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[8]
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = s[9]
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = s[10]
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = s[11]
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = s[12]
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = s[13]
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = s[14]
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[15]
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[16]
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = s[17]
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = s[18]
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = s[19]
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = s[20]
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = s[21]
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = s[22]
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[23]
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[24]
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = s[25]
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = s[26]
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = s[27]
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = s[28]
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = s[29]
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = s[30]
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[31]
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m0 | m1 | m2 | m3
	}
}

// refmask32x0 refines against zero-bit codes (all zero): either every
// group's mask survives unchanged or every group empties.
func refmask32x0(dst, src []uint32, lo, span uint32) {
	_ = src
	if inRange(0, lo, span) == 1 {
		return
	}
	clear(dst)
}

// refmask32x1 refines len(dst) groups of 32 1-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x1(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*1:]
		_ = s[0]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 1) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 2) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 3) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 4) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 5) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 6) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 7) & 0x1
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 8) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 9) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0] >> 10) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[0] >> 11) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[0] >> 12) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[0] >> 13) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[0] >> 14) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[0] >> 15) & 0x1
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[0] >> 16) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[0] >> 17) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[0] >> 18) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[0] >> 19) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[0] >> 20) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[0] >> 21) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[0] >> 22) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[0] >> 23) & 0x1
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[0] >> 24) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[0] >> 25) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[0] >> 26) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[0] >> 27) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[0] >> 28) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[0] >> 29) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[0] >> 30) & 0x1
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[0] >> 31
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x2 refines len(dst) groups of 32 2-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x2(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*2:]
		_ = s[1]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 2) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 4) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 6) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 8) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 10) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 12) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 14) & 0x3
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 16) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 18) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0] >> 20) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[0] >> 22) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[0] >> 24) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[0] >> 26) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[0] >> 28) & 0x3
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[0] >> 30
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[1] & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[1] >> 2) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[1] >> 4) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[1] >> 6) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[1] >> 8) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[1] >> 10) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[1] >> 12) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[1] >> 14) & 0x3
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[1] >> 16) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[1] >> 18) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[1] >> 20) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[1] >> 22) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[1] >> 24) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[1] >> 26) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[1] >> 28) & 0x3
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[1] >> 30
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x3 refines len(dst) groups of 32 3-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x3(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*3:]
		_ = s[2]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 3) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 6) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 9) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 12) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 15) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 18) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[0] >> 21) & 0x7
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[0] >> 24) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[0] >> 27) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[0]>>30 | s[1]<<2) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 1) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1] >> 4) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[1] >> 7) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[1] >> 10) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[1] >> 13) & 0x7
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[1] >> 16) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[1] >> 19) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[1] >> 22) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[1] >> 25) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[1] >> 28) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[1]>>31 | s[2]<<1) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[2] >> 2) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[2] >> 5) & 0x7
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[2] >> 8) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[2] >> 11) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[2] >> 14) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[2] >> 17) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[2] >> 20) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[2] >> 23) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[2] >> 26) & 0x7
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[2] >> 29
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x4 refines len(dst) groups of 32 4-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x4(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*4:]
		_ = s[3]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 4) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 8) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 12) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 16) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 20) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0] >> 24) & 0xF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[0] >> 28
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[1] & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[1] >> 4) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[1] >> 8) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 12) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1] >> 16) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[1] >> 20) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[1] >> 24) & 0xF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[1] >> 28
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[2] & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[2] >> 4) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[2] >> 8) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[2] >> 12) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[2] >> 16) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[2] >> 20) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[2] >> 24) & 0xF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[2] >> 28
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[3] & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[3] >> 4) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[3] >> 8) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[3] >> 12) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[3] >> 16) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[3] >> 20) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[3] >> 24) & 0xF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[3] >> 28
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x5 refines len(dst) groups of 32 5-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x5(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*5:]
		_ = s[4]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0] >> 5) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[0] >> 10) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[0] >> 15) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[0] >> 20) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[0] >> 25) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[0]>>30 | s[1]<<2) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[1] >> 3) & 0x1F
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[1] >> 8) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[1] >> 13) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[1] >> 18) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[1] >> 23) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[1]>>28 | s[2]<<4) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[2] >> 1) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[2] >> 6) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[2] >> 11) & 0x1F
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[2] >> 16) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[2] >> 21) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[2] >> 26) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[2]>>31 | s[3]<<1) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[3] >> 4) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[3] >> 9) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[3] >> 14) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[3] >> 19) & 0x1F
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[3] >> 24) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[3]>>29 | s[4]<<3) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[4] >> 2) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[4] >> 7) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[4] >> 12) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[4] >> 17) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[4] >> 22) & 0x1F
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[4] >> 27
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x6 refines len(dst) groups of 32 6-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x6(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 6)
	hs := h - l
	ll, hh := uint64(l)*0x1001001001001, uint64(h)*0x1001001001001|0x40040040040040
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*6:]
		_ = s[5]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-9
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3F03F03F03F03F
		o = x0 >> 6 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		p, _ = bits.Mul64(e|o<<1, 0x401004010040000)
		m0 |= uint32(p) & 0x3FF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x3F
		m1 |= uint32(inRange(v, l, hs)) << 10
		// codes 11-20
		e = x1 >> 2 & 0x3F03F03F03F03F
		o = x1 >> 8 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		m2 |= uint32(((e|o<<1)*0x10040100401)>>35) & 0x1FF800
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x3F
		m3 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-31
		e = x2 >> 4 & 0x3F03F03F03F03F
		o = x2 >> 10 & 0x3F03F03F03F03F
		e = ((e | 0x40040040040040) - ll) & (hh - e) & 0x40040040040040
		o = ((o | 0x40040040040040) - ll) & (hh - o) & 0x40040040040040
		m0 |= uint32(((e|o<<1)*0x10040100401)>>24) & 0xFFC00000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x7 refines len(dst) groups of 32 7-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x7(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 7)
	hs := h - l
	ll, hh := uint64(l)*0x100040010004001, uint64(h)*0x100040010004001|0x8002000800200080
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*7:]
		_ = s[6]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-8
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7F01FC07F01FC07F
		o = x0 >> 7 & 0x7F01FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x8002000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		p, _ = bits.Mul64(e|o<<1, 0x200200200200200)
		m0 |= uint32(p) & 0x1FF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>63|x1<<1) & 0x7F
		m1 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-17
		e = x1 >> 6 & 0x1FC07F01FC07F
		o = x1 >> 13 & 0x1FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x2000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		m2 |= uint32(((e|o<<1)*0x1001001001)>>33) & 0x3FC00
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x7F
		m3 |= uint32(inRange(v, l, hs)) << 18
		// codes 19-26
		e = x2 >> 5 & 0x1FC07F01FC07F
		o = x2 >> 12 & 0x1FC07F01FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x2000800200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x2000800200080
		m0 |= uint32(((e|o<<1)*0x1001001001)>>24) & 0x7F80000
		x3 := uint64(s[6])
		v = uint32(x2>>61|x3<<3) & 0x7F
		m1 |= uint32(inRange(v, l, hs)) << 27
		// codes 28-31
		e = x3 >> 4 & 0x1FC07F
		o = x3 >> 11 & 0x1FC07F
		e = ((e | 0x8002000800200080) - ll) & (hh - e) & 0x200080
		o = ((o | 0x8002000800200080) - ll) & (hh - o) & 0x200080
		m2 |= uint32((e|o<<1)*0x200200) & 0xF0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x8 refines len(dst) groups of 32 8-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x8(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 8)
	ll, hh := uint64(l)*0x1000100010001, uint64(h)*0x1000100010001|0x100010001000100
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*8:]
		_ = s[7]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		// codes 0-7
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFF00FF00FF00FF
		o = x0 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		p, _ = bits.Mul64(e|o<<1, 0x100040010004000)
		m0 |= uint32(p) & 0xFF
		// codes 8-15
		x1 := uint64(s[2]) | uint64(s[3])<<32
		e = x1 & 0xFF00FF00FF00FF
		o = x1 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m1 |= uint32(((e|o<<1)*0x40010004001)>>42) & 0xFF00
		// codes 16-23
		x2 := uint64(s[4]) | uint64(s[5])<<32
		e = x2 & 0xFF00FF00FF00FF
		o = x2 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m2 |= uint32(((e|o<<1)*0x40010004001)>>34) & 0xFF0000
		// codes 24-31
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFF00FF00FF00FF
		o = x3 >> 8 & 0xFF00FF00FF00FF
		e = ((e | 0x100010001000100) - ll) & (hh - e) & 0x100010001000100
		o = ((o | 0x100010001000100) - ll) & (hh - o) & 0x100010001000100
		m3 |= uint32(((e|o<<1)*0x40010004001)>>26) & 0xFF000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x9 refines len(dst) groups of 32 9-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x9(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 9)
	hs := h - l
	ll, hh := uint64(l)*0x40001000040001, uint64(h)*0x40001000040001|0x8000200008000200
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*9:]
		_ = s[8]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-6
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FC01FF007FC01FF
		o = x0 >> 9 & 0x7FC01FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x8000200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		p, _ = bits.Mul64(e|o<<1, 0x80008000800080)
		m0 |= uint32(p) & 0x7F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>63|x1<<1) & 0x1FF
		m1 |= uint32(inRange(v, l, hs)) << 7
		// codes 8-13
		e = x1 >> 8 & 0x1FF007FC01FF
		o = x1 >> 17 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		p, _ = bits.Mul64(e|o<<1, 0x8000800080000000)
		m2 |= uint32(p) & 0x3F00
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x1FF
		m3 |= uint32(inRange(v, l, hs)) << 14
		// codes 15-20
		e = x2 >> 7 & 0x1FF007FC01FF
		o = x2 >> 16 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		m0 |= uint32(((e|o<<1)*0x100010001)>>26) & 0x1F8000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>61|x3<<3) & 0x1FF
		m1 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-27
		e = x3 >> 6 & 0x1FF007FC01FF
		o = x3 >> 15 & 0x1FF007FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x200008000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200008000200
		m2 |= uint32(((e|o<<1)*0x100010001)>>19) & 0xFC00000
		x4 := uint64(s[8])
		v = uint32(x3>>60|x4<<4) & 0x1FF
		m3 |= uint32(inRange(v, l, hs)) << 28
		// codes 29-31
		e = x4 >> 5 & 0x7FC01FF
		o = x4 >> 14 & 0x7FC01FF
		e = ((e | 0x8000200008000200) - ll) & (hh - e) & 0x8000200
		o = ((o | 0x8000200008000200) - ll) & (hh - o) & 0x200
		m0 |= uint32((e|o<<1)*0x100010) & 0xE0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x10 refines len(dst) groups of 32 10-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x10(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 10)
	hs := h - l
	ll, hh := uint64(l)*0x10000100001, uint64(h)*0x10000100001|0x4000040000400
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*10:]
		_ = s[9]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-5
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3FF003FF003FF
		o = x0 >> 10 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		p, _ = bits.Mul64(e|o<<1, 0x40001000040000)
		m0 |= uint32(p) & 0x3F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x3FF
		m1 |= uint32(inRange(v, l, hs)) << 6
		// codes 7-11
		e = x1 >> 6 & 0x3FF003FF003FF
		o = x1 >> 16 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x40000400
		p, _ = bits.Mul64(e|o<<1, 0x2000080002000000)
		m2 |= uint32(p) & 0xF80
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0x3FF
		m3 |= uint32(inRange(v, l, hs)) << 12
		// codes 13-18
		e = x2 >> 2 & 0x3FF003FF003FF
		o = x2 >> 12 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		m0 |= uint32(((e|o<<1)*0x1000040001)>>33) & 0x7E000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>62|x3<<2) & 0x3FF
		m1 |= uint32(inRange(v, l, hs)) << 19
		// codes 20-24
		e = x3 >> 8 & 0x3FF003FF003FF
		o = x3 >> 18 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x40000400
		m2 |= uint32(((e|o<<1)*0x1000040001)>>26) & 0x1F00000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>58|x4<<6) & 0x3FF
		m3 |= uint32(inRange(v, l, hs)) << 25
		// codes 26-31
		e = x4 >> 4 & 0x3FF003FF003FF
		o = x4 >> 14 & 0x3FF003FF003FF
		e = ((e | 0x4000040000400) - ll) & (hh - e) & 0x4000040000400
		o = ((o | 0x4000040000400) - ll) & (hh - o) & 0x4000040000400
		m0 |= uint32(((e|o<<1)*0x1000040001)>>20) & 0xFC000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x11 refines len(dst) groups of 32 11-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x11(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 11)
	hs := h - l
	ll, hh := uint64(l)*0x100000400001, uint64(h)*0x100000400001|0x80000200000800
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*11:]
		_ = s[10]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-4
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FF001FFC007FF
		o = x0 >> 11 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		p, _ = bits.Mul64(e|o<<1, 0x20000200002000)
		m0 |= uint32(p) & 0x1F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>55|x1<<9) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 5
		// codes 6-10
		e = x1 >> 2 & 0x7FF001FFC007FF
		o = x1 >> 13 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		p, _ = bits.Mul64(e|o<<1, 0x800008000080000)
		m2 |= uint32(p) & 0x7C0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>57|x2<<7) & 0x7FF
		m3 |= uint32(inRange(v, l, hs)) << 11
		// codes 12-16
		e = x2 >> 4 & 0x7FF001FFC007FF
		o = x2 >> 15 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m0 |= uint32(((e|o<<1)*0x10000100001)>>39) & 0x1F000
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>59|x3<<5) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 17
		// codes 18-22
		e = x3 >> 6 & 0x7FF001FFC007FF
		o = x3 >> 17 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m2 |= uint32(((e|o<<1)*0x10000100001)>>33) & 0x7C0000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>61|x4<<3) & 0x7FF
		m3 |= uint32(inRange(v, l, hs)) << 23
		// codes 24-28
		e = x4 >> 8 & 0x7FF001FFC007FF
		o = x4 >> 19 & 0x7FF001FFC007FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x80000200000800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x200000800
		m0 |= uint32(((e|o<<1)*0x10000100001)>>27) & 0x1F000000
		x5 := uint64(s[10])
		v = uint32(x4>>63|x5<<1) & 0x7FF
		m1 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x5 >> 10 & 0x7FF
		o = x5 >> 21 & 0x7FF
		e = ((e | 0x80000200000800) - ll) & (hh - e) & 0x800
		o = ((o | 0x80000200000800) - ll) & (hh - o) & 0x800
		m2 |= uint32((e|o<<1)*0x80000) & 0xC0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x12 refines len(dst) groups of 32 12-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x12(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 12)
	hs := h - l
	ll, hh := uint64(l)*0x1000001000001, uint64(h)*0x1000001000001|0x1000001000001000
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*12:]
		_ = s[11]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-4
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFFF000FFF000FFF
		o = x0 >> 12 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x10000040000100)
		m0 |= uint32(p) & 0x1F
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0xFFF
		m1 |= uint32(inRange(v, l, hs)) << 5
		// codes 6-9
		e = x1 >> 8 & 0xFFF000FFF
		o = x1 >> 20 & 0xFFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x400001000000000)
		m2 |= uint32(p) & 0x3C0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0xFFF
		m3 |= uint32(inRange(v, l, hs)) << 10
		// codes 11-15
		e = x2 >> 4 & 0xFFF000FFF000FFF
		o = x2 >> 16 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		p, _ = bits.Mul64(e|o<<1, 0x8000020000080000)
		m0 |= uint32(p) & 0xF800
		// codes 16-20
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFFF000FFF000FFF
		o = x3 >> 12 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m1 |= uint32(((e|o<<1)*0x100000400001)>>40) & 0x1F0000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>60|x4<<4) & 0xFFF
		m2 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-25
		e = x4 >> 8 & 0xFFF000FFF
		o = x4 >> 20 & 0xFFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m3 |= uint32(((e|o<<1)*0x400001)>>12) & 0x3C00000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>56|x5<<8) & 0xFFF
		m0 |= uint32(inRange(v, l, hs)) << 26
		// codes 27-31
		e = x5 >> 4 & 0xFFF000FFF000FFF
		o = x5 >> 16 & 0xFFF000FFF000FFF
		e = ((e | 0x1000001000001000) - ll) & (hh - e) & 0x1000001000001000
		o = ((o | 0x1000001000001000) - ll) & (hh - o) & 0x1000001000
		m1 |= uint32(((e|o<<1)*0x100000400001)>>29) & 0xF8000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x13 refines len(dst) groups of 32 13-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x13(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 13)
	hs := h - l
	ll, hh := uint64(l)*0x4000001, uint64(h)*0x4000001|0x8000002000
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*13:]
		_ = s[12]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x7FFC001FFF
		o = x0 >> 13 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x8000008000000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>52|x1<<12) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-8
		e = x1 >> 1 & 0x7FFC001FFF
		o = x1 >> 14 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x100000100000000)
		m2 |= uint32(p) & 0x1E0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>53|x2<<11) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-13
		e = x2 >> 2 & 0x7FFC001FFF
		o = x2 >> 15 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		p, _ = bits.Mul64(e|o<<1, 0x2000002000000000)
		m0 |= uint32(p) & 0x3C00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>54|x3<<10) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 14
		// codes 15-18
		e = x3 >> 3 & 0x7FFC001FFF
		o = x3 >> 16 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m2 |= uint32(((e|o<<1)*0x1000001)>>22) & 0x78000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>55|x4<<9) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 19
		// codes 20-23
		e = x4 >> 4 & 0x7FFC001FFF
		o = x4 >> 17 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m0 |= uint32(((e|o<<1)*0x1000001)>>17) & 0xF00000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>56|x5<<8) & 0x1FFF
		m1 |= uint32(inRange(v, l, hs)) << 24
		// codes 25-28
		e = x5 >> 5 & 0x7FFC001FFF
		o = x5 >> 18 & 0x7FFC001FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x8000002000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x8000002000
		m2 |= uint32(((e|o<<1)*0x1000001)>>12) & 0x1E000000
		x6 := uint64(s[12])
		v = uint32(x5>>57|x6<<7) & 0x1FFF
		m3 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x6 >> 6 & 0x1FFF
		o = x6 >> 19 & 0x1FFF
		e = ((e | 0x8000002000) - ll) & (hh - e) & 0x2000
		o = ((o | 0x8000002000) - ll) & (hh - o) & 0x2000
		m0 |= uint32((e|o<<1)*0x20000) & 0xC0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x14 refines len(dst) groups of 32 14-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x14(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 14)
	hs := h - l
	ll, hh := uint64(l)*0x10000001, uint64(h)*0x10000001|0x40000004000
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*14:]
		_ = s[13]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x3FFF0003FFF
		o = x0 >> 14 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		p, _ = bits.Mul64(e|o<<1, 0x4000001000000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>56|x1<<8) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-8
		e = x1 >> 6 & 0x3FFF0003FFF
		o = x1 >> 20 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		p, _ = bits.Mul64(e|o<<1, 0x80000020000000)
		m2 |= uint32(p) & 0x1E0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>62|x2<<2) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 9
		// codes 10-12
		e = x2 >> 12 & 0x3FFF0003FFF
		o = x2 >> 26 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x4000
		p, _ = bits.Mul64(e|o<<1, 0x1000000400000000)
		m0 |= uint32(p) & 0x1C00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>54|x3<<10) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 13
		// codes 14-17
		e = x3 >> 4 & 0x3FFF0003FFF
		o = x3 >> 18 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m2 |= uint32(((e|o<<1)*0x4000001)>>26) & 0x3C000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>60|x4<<4) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 18
		// codes 19-21
		e = x4 >> 10 & 0x3FFF0003FFF
		o = x4 >> 24 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x4000
		m0 |= uint32(((e|o<<1)*0x4000001)>>21) & 0x380000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>52|x5<<12) & 0x3FFF
		m1 |= uint32(inRange(v, l, hs)) << 22
		// codes 23-26
		e = x5 >> 2 & 0x3FFF0003FFF
		o = x5 >> 16 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m2 |= uint32(((e|o<<1)*0x4000001)>>17) & 0x7800000
		x6 := uint64(s[12]) | uint64(s[13])<<32
		v = uint32(x5>>58|x6<<6) & 0x3FFF
		m3 |= uint32(inRange(v, l, hs)) << 27
		// codes 28-31
		e = x6 >> 8 & 0x3FFF0003FFF
		o = x6 >> 22 & 0x3FFF0003FFF
		e = ((e | 0x40000004000) - ll) & (hh - e) & 0x40000004000
		o = ((o | 0x40000004000) - ll) & (hh - o) & 0x40000004000
		m0 |= uint32(((e|o<<1)*0x4000001)>>12) & 0xF0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x15 refines len(dst) groups of 32 15-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x15(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 15)
	hs := h - l
	ll, hh := uint64(l)*0x40000001, uint64(h)*0x40000001|0x200000008000
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*15:]
		_ = s[14]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		var v uint32
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0x1FFFC0007FFF
		o = x0 >> 15 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x200000008000
		p, _ = bits.Mul64(e|o<<1, 0x2000000200000)
		m0 |= uint32(p) & 0xF
		x1 := uint64(s[2]) | uint64(s[3])<<32
		v = uint32(x0>>60|x1<<4) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 4
		// codes 5-7
		e = x1 >> 11 & 0x1FFFC0007FFF
		o = x1 >> 26 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		p, _ = bits.Mul64(e|o<<1, 0x40000004000000)
		m2 |= uint32(p) & 0xE0
		x2 := uint64(s[4]) | uint64(s[5])<<32
		v = uint32(x1>>56|x2<<8) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 8
		// codes 9-11
		e = x2 >> 7 & 0x1FFFC0007FFF
		o = x2 >> 22 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		p, _ = bits.Mul64(e|o<<1, 0x400000040000000)
		m0 |= uint32(p) & 0xE00
		x3 := uint64(s[6]) | uint64(s[7])<<32
		v = uint32(x2>>52|x3<<12) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 12
		// codes 13-16
		e = x3 >> 3 & 0x1FFFC0007FFF
		o = x3 >> 18 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x200000008000
		p, _ = bits.Mul64(e|o<<1, 0x4000000400000000)
		m2 |= uint32(p) & 0x1E000
		x4 := uint64(s[8]) | uint64(s[9])<<32
		v = uint32(x3>>63|x4<<1) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 17
		// codes 18-20
		e = x4 >> 14 & 0x1FFFC0007FFF
		o = x4 >> 29 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m0 |= uint32(((e|o<<1)*0x10000001)>>25) & 0x1C0000
		x5 := uint64(s[10]) | uint64(s[11])<<32
		v = uint32(x4>>59|x5<<5) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 21
		// codes 22-24
		e = x5 >> 10 & 0x1FFFC0007FFF
		o = x5 >> 25 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m2 |= uint32(((e|o<<1)*0x10000001)>>21) & 0x1C00000
		x6 := uint64(s[12]) | uint64(s[13])<<32
		v = uint32(x5>>55|x6<<9) & 0x7FFF
		m3 |= uint32(inRange(v, l, hs)) << 25
		// codes 26-28
		e = x6 >> 6 & 0x1FFFC0007FFF
		o = x6 >> 21 & 0x1FFFC0007FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x200000008000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m0 |= uint32(((e|o<<1)*0x10000001)>>17) & 0x1C000000
		x7 := uint64(s[14])
		v = uint32(x6>>51|x7<<13) & 0x7FFF
		m1 |= uint32(inRange(v, l, hs)) << 29
		// codes 30-31
		e = x7 >> 2 & 0x7FFF
		o = x7 >> 17 & 0x7FFF
		e = ((e | 0x200000008000) - ll) & (hh - e) & 0x8000
		o = ((o | 0x200000008000) - ll) & (hh - o) & 0x8000
		m2 |= uint32((e|o<<1)*0x8000) & 0xC0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x16 refines len(dst) groups of 32 16-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x16(dst, src []uint32, lo, span uint32) {
	l, h, flip := swarRange(lo, span, 16)
	ll, hh := uint64(l)*0x100000001, uint64(h)*0x100000001|0x1000000010000
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*16:]
		_ = s[15]
		var m0, m1, m2, m3 uint32
		var e, o uint64
		var p uint64
		// codes 0-3
		x0 := uint64(s[0]) | uint64(s[1])<<32
		e = x0 & 0xFFFF0000FFFF
		o = x0 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x1000000040000)
		m0 |= uint32(p) & 0xF
		// codes 4-7
		x1 := uint64(s[2]) | uint64(s[3])<<32
		e = x1 & 0xFFFF0000FFFF
		o = x1 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x10000000400000)
		m1 |= uint32(p) & 0xF0
		// codes 8-11
		x2 := uint64(s[4]) | uint64(s[5])<<32
		e = x2 & 0xFFFF0000FFFF
		o = x2 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x100000004000000)
		m2 |= uint32(p) & 0xF00
		// codes 12-15
		x3 := uint64(s[6]) | uint64(s[7])<<32
		e = x3 & 0xFFFF0000FFFF
		o = x3 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		p, _ = bits.Mul64(e|o<<1, 0x1000000040000000)
		m3 |= uint32(p) & 0xF000
		// codes 16-19
		x4 := uint64(s[8]) | uint64(s[9])<<32
		e = x4 & 0xFFFF0000FFFF
		o = x4 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m0 |= uint32(((e|o<<1)*0x40000001)>>30) & 0xF0000
		// codes 20-23
		x5 := uint64(s[10]) | uint64(s[11])<<32
		e = x5 & 0xFFFF0000FFFF
		o = x5 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m1 |= uint32(((e|o<<1)*0x40000001)>>26) & 0xF00000
		// codes 24-27
		x6 := uint64(s[12]) | uint64(s[13])<<32
		e = x6 & 0xFFFF0000FFFF
		o = x6 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m2 |= uint32(((e|o<<1)*0x40000001)>>22) & 0xF000000
		// codes 28-31
		x7 := uint64(s[14]) | uint64(s[15])<<32
		e = x7 & 0xFFFF0000FFFF
		o = x7 >> 16 & 0xFFFF0000FFFF
		e = ((e | 0x1000000010000) - ll) & (hh - e) & 0x1000000010000
		o = ((o | 0x1000000010000) - ll) & (hh - o) & 0x1000000010000
		m3 |= uint32(((e|o<<1)*0x40000001)>>18) & 0xF0000000
		dst[g] = m & ((m0 | m1 | m2 | m3) ^ flip)
	}
}

// refmask32x17 refines len(dst) groups of 32 17-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x17(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*17:]
		_ = s[16]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>17 | s[1]<<15) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 2) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>19 | s[2]<<13) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 4) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>21 | s[3]<<11) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3] >> 6) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[3]>>23 | s[4]<<9) & 0x1FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4] >> 8) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[4]>>25 | s[5]<<7) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5] >> 10) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[5]>>27 | s[6]<<5) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[6] >> 12) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[6]>>29 | s[7]<<3) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[7] >> 14) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[7]>>31 | s[8]<<1) & 0x1FFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[8]>>16 | s[9]<<16) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[9] >> 1) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[9]>>18 | s[10]<<14) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[10] >> 3) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[10]>>20 | s[11]<<12) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[11] >> 5) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[11]>>22 | s[12]<<10) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[12] >> 7) & 0x1FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[12]>>24 | s[13]<<8) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[13] >> 9) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[13]>>26 | s[14]<<6) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[14] >> 11) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[14]>>28 | s[15]<<4) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[15] >> 13) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[15]>>30 | s[16]<<2) & 0x1FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[16] >> 15
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x18 refines len(dst) groups of 32 18-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x18(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*18:]
		_ = s[17]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>18 | s[1]<<14) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 4) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>22 | s[2]<<10) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 8) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>26 | s[3]<<6) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3] >> 12) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[3]>>30 | s[4]<<2) & 0x3FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4]>>16 | s[5]<<16) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5] >> 2) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5]>>20 | s[6]<<12) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6] >> 6) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[6]>>24 | s[7]<<8) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[7] >> 10) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[7]>>28 | s[8]<<4) & 0x3FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[8] >> 14
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[9] & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[9]>>18 | s[10]<<14) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[10] >> 4) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[10]>>22 | s[11]<<10) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[11] >> 8) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[11]>>26 | s[12]<<6) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[12] >> 12) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[12]>>30 | s[13]<<2) & 0x3FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[13]>>16 | s[14]<<16) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[14] >> 2) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[14]>>20 | s[15]<<12) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[15] >> 6) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[15]>>24 | s[16]<<8) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[16] >> 10) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[16]>>28 | s[17]<<4) & 0x3FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[17] >> 14
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x19 refines len(dst) groups of 32 19-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x19(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*19:]
		_ = s[18]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>19 | s[1]<<13) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 6) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>25 | s[2]<<7) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2] >> 12) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[2]>>31 | s[3]<<1) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>18 | s[4]<<14) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4] >> 5) & 0x7FFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[4]>>24 | s[5]<<8) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5] >> 11) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[5]>>30 | s[6]<<2) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6]>>17 | s[7]<<15) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7] >> 4) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[7]>>23 | s[8]<<9) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[8] >> 10) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[8]>>29 | s[9]<<3) & 0x7FFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[9]>>16 | s[10]<<16) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[10] >> 3) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[10]>>22 | s[11]<<10) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[11] >> 9) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[11]>>28 | s[12]<<4) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[12]>>15 | s[13]<<17) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[13] >> 2) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[13]>>21 | s[14]<<11) & 0x7FFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[14] >> 8) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[14]>>27 | s[15]<<5) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[15]>>14 | s[16]<<18) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[16] >> 1) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[16]>>20 | s[17]<<12) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[17] >> 7) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[17]>>26 | s[18]<<6) & 0x7FFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[18] >> 13
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x20 refines len(dst) groups of 32 20-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x20(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*20:]
		_ = s[19]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>20 | s[1]<<12) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 8) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>28 | s[2]<<4) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>16 | s[3]<<16) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3] >> 4) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>24 | s[4]<<8) & 0xFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[4] >> 12
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[5] & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5]>>20 | s[6]<<12) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6] >> 8) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[6]>>28 | s[7]<<4) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7]>>16 | s[8]<<16) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8] >> 4) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[8]>>24 | s[9]<<8) & 0xFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[9] >> 12
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[10] & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[10]>>20 | s[11]<<12) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[11] >> 8) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[11]>>28 | s[12]<<4) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[12]>>16 | s[13]<<16) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[13] >> 4) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[13]>>24 | s[14]<<8) & 0xFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[14] >> 12
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[15] & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[15]>>20 | s[16]<<12) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[16] >> 8) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[16]>>28 | s[17]<<4) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[17]>>16 | s[18]<<16) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[18] >> 4) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[18]>>24 | s[19]<<8) & 0xFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[19] >> 12
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x21 refines len(dst) groups of 32 21-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x21(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*21:]
		_ = s[20]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>21 | s[1]<<11) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1] >> 10) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[1]>>31 | s[2]<<1) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>20 | s[3]<<12) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3] >> 9) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[3]>>30 | s[4]<<2) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4]>>19 | s[5]<<13) & 0x1FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5] >> 8) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[5]>>29 | s[6]<<3) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6]>>18 | s[7]<<14) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7] >> 7) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[7]>>28 | s[8]<<4) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8]>>17 | s[9]<<15) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[9] >> 6) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[9]>>27 | s[10]<<5) & 0x1FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[10]>>16 | s[11]<<16) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[11] >> 5) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[11]>>26 | s[12]<<6) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[12]>>15 | s[13]<<17) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[13] >> 4) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[13]>>25 | s[14]<<7) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[14]>>14 | s[15]<<18) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[15] >> 3) & 0x1FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[15]>>24 | s[16]<<8) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[16]>>13 | s[17]<<19) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[17] >> 2) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[17]>>23 | s[18]<<9) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[18]>>12 | s[19]<<20) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[19] >> 1) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[19]>>22 | s[20]<<10) & 0x1FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[20] >> 11
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x22 refines len(dst) groups of 32 22-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x22(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*22:]
		_ = s[21]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>22 | s[1]<<10) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>12 | s[2]<<20) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2] >> 2) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>24 | s[3]<<8) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>14 | s[4]<<18) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4] >> 4) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[4]>>26 | s[5]<<6) & 0x3FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5]>>16 | s[6]<<16) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6] >> 6) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[6]>>28 | s[7]<<4) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7]>>18 | s[8]<<14) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[8] >> 8) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[8]>>30 | s[9]<<2) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[9]>>20 | s[10]<<12) & 0x3FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[10] >> 10
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[11] & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[11]>>22 | s[12]<<10) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[12]>>12 | s[13]<<20) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[13] >> 2) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[13]>>24 | s[14]<<8) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[14]>>14 | s[15]<<18) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[15] >> 4) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[15]>>26 | s[16]<<6) & 0x3FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[16]>>16 | s[17]<<16) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[17] >> 6) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[17]>>28 | s[18]<<4) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[18]>>18 | s[19]<<14) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[19] >> 8) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[19]>>30 | s[20]<<2) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[20]>>20 | s[21]<<12) & 0x3FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[21] >> 10
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x23 refines len(dst) groups of 32 23-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x23(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*23:]
		_ = s[22]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>23 | s[1]<<9) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>14 | s[2]<<18) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2] >> 5) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[2]>>28 | s[3]<<4) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>19 | s[4]<<13) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>10 | s[5]<<22) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5] >> 1) & 0x7FFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[5]>>24 | s[6]<<8) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6]>>15 | s[7]<<17) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7] >> 6) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[7]>>29 | s[8]<<3) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[8]>>20 | s[9]<<12) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[9]>>11 | s[10]<<21) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10] >> 2) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[10]>>25 | s[11]<<7) & 0x7FFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[11]>>16 | s[12]<<16) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[12] >> 7) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[12]>>30 | s[13]<<2) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[13]>>21 | s[14]<<11) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[14]>>12 | s[15]<<20) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[15] >> 3) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[15]>>26 | s[16]<<6) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[16]>>17 | s[17]<<15) & 0x7FFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[17] >> 8) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[17]>>31 | s[18]<<1) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[18]>>22 | s[19]<<10) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[19]>>13 | s[20]<<19) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[20] >> 4) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[20]>>27 | s[21]<<5) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[21]>>18 | s[22]<<14) & 0x7FFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[22] >> 9
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x24 refines len(dst) groups of 32 24-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x24(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*24:]
		_ = s[23]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>24 | s[1]<<8) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>16 | s[2]<<16) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = s[2] >> 8
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = s[3] & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>24 | s[4]<<8) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>16 | s[5]<<16) & 0xFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[5] >> 8
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[6] & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[6]>>24 | s[7]<<8) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7]>>16 | s[8]<<16) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = s[8] >> 8
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = s[9] & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[9]>>24 | s[10]<<8) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10]>>16 | s[11]<<16) & 0xFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[11] >> 8
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[12] & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[12]>>24 | s[13]<<8) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[13]>>16 | s[14]<<16) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = s[14] >> 8
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = s[15] & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[15]>>24 | s[16]<<8) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[16]>>16 | s[17]<<16) & 0xFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[17] >> 8
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[18] & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[18]>>24 | s[19]<<8) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[19]>>16 | s[20]<<16) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = s[20] >> 8
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = s[21] & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[21]>>24 | s[22]<<8) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[22]>>16 | s[23]<<16) & 0xFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[23] >> 8
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x25 refines len(dst) groups of 32 25-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x25(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*25:]
		_ = s[24]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>25 | s[1]<<7) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>18 | s[2]<<14) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>11 | s[3]<<21) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3] >> 4) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[3]>>29 | s[4]<<3) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>22 | s[5]<<10) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>15 | s[6]<<17) & 0x1FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>8 | s[7]<<24) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7] >> 1) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[7]>>26 | s[8]<<6) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[8]>>19 | s[9]<<13) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[9]>>12 | s[10]<<20) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10] >> 5) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[10]>>30 | s[11]<<2) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[11]>>23 | s[12]<<9) & 0x1FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[12]>>16 | s[13]<<16) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[13]>>9 | s[14]<<23) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[14] >> 2) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[14]>>27 | s[15]<<5) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[15]>>20 | s[16]<<12) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[16]>>13 | s[17]<<19) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[17] >> 6) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[17]>>31 | s[18]<<1) & 0x1FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[18]>>24 | s[19]<<8) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[19]>>17 | s[20]<<15) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[20]>>10 | s[21]<<22) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[21] >> 3) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[21]>>28 | s[22]<<4) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[22]>>21 | s[23]<<11) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[23]>>14 | s[24]<<18) & 0x1FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[24] >> 7
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x26 refines len(dst) groups of 32 26-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x26(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*26:]
		_ = s[25]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>26 | s[1]<<6) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>20 | s[2]<<12) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>14 | s[3]<<18) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>8 | s[4]<<24) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4] >> 2) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[4]>>28 | s[5]<<4) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>22 | s[6]<<10) & 0x3FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>16 | s[7]<<16) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>10 | s[8]<<22) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8] >> 4) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[8]>>30 | s[9]<<2) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[9]>>24 | s[10]<<8) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10]>>18 | s[11]<<14) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[11]>>12 | s[12]<<20) & 0x3FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[12] >> 6
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[13] & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[13]>>26 | s[14]<<6) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[14]>>20 | s[15]<<12) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[15]>>14 | s[16]<<18) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[16]>>8 | s[17]<<24) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[17] >> 2) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[17]>>28 | s[18]<<4) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[18]>>22 | s[19]<<10) & 0x3FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[19]>>16 | s[20]<<16) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[20]>>10 | s[21]<<22) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[21] >> 4) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[21]>>30 | s[22]<<2) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[22]>>24 | s[23]<<8) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[23]>>18 | s[24]<<14) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[24]>>12 | s[25]<<20) & 0x3FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[25] >> 6
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x27 refines len(dst) groups of 32 27-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x27(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*27:]
		_ = s[26]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>27 | s[1]<<5) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>22 | s[2]<<10) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>17 | s[3]<<15) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>12 | s[4]<<20) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>7 | s[5]<<25) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5] >> 2) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[5]>>29 | s[6]<<3) & 0x7FFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[6]>>24 | s[7]<<8) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>19 | s[8]<<13) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8]>>14 | s[9]<<18) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>9 | s[10]<<23) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10] >> 4) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[10]>>31 | s[11]<<1) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[11]>>26 | s[12]<<6) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[12]>>21 | s[13]<<11) & 0x7FFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[13]>>16 | s[14]<<16) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[14]>>11 | s[15]<<21) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[15]>>6 | s[16]<<26) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[16] >> 1) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[16]>>28 | s[17]<<4) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[17]>>23 | s[18]<<9) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[18]>>18 | s[19]<<14) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[19]>>13 | s[20]<<19) & 0x7FFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[20]>>8 | s[21]<<24) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[21] >> 3) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[21]>>30 | s[22]<<2) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[22]>>25 | s[23]<<7) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[23]>>20 | s[24]<<12) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[24]>>15 | s[25]<<17) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[25]>>10 | s[26]<<22) & 0x7FFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[26] >> 5
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x28 refines len(dst) groups of 32 28-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x28(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*28:]
		_ = s[27]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>28 | s[1]<<4) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>24 | s[2]<<8) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>20 | s[3]<<12) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>16 | s[4]<<16) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>12 | s[5]<<20) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>8 | s[6]<<24) & 0xFFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[6] >> 4
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[7] & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[7]>>28 | s[8]<<4) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[8]>>24 | s[9]<<8) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>20 | s[10]<<12) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10]>>16 | s[11]<<16) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[11]>>12 | s[12]<<20) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[12]>>8 | s[13]<<24) & 0xFFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[13] >> 4
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[14] & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[14]>>28 | s[15]<<4) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[15]>>24 | s[16]<<8) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[16]>>20 | s[17]<<12) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[17]>>16 | s[18]<<16) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[18]>>12 | s[19]<<20) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[19]>>8 | s[20]<<24) & 0xFFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[20] >> 4
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[21] & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[21]>>28 | s[22]<<4) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[22]>>24 | s[23]<<8) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[23]>>20 | s[24]<<12) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[24]>>16 | s[25]<<16) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[25]>>12 | s[26]<<20) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[26]>>8 | s[27]<<24) & 0xFFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[27] >> 4
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x29 refines len(dst) groups of 32 29-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x29(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*29:]
		_ = s[28]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>29 | s[1]<<3) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>26 | s[2]<<6) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>23 | s[3]<<9) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>20 | s[4]<<12) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>17 | s[5]<<15) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>14 | s[6]<<18) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>11 | s[7]<<21) & 0x1FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>8 | s[8]<<24) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>5 | s[9]<<27) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9] >> 2) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[9]>>31 | s[10]<<1) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[10]>>28 | s[11]<<4) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[11]>>25 | s[12]<<7) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[12]>>22 | s[13]<<10) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[13]>>19 | s[14]<<13) & 0x1FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[14]>>16 | s[15]<<16) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[15]>>13 | s[16]<<19) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[16]>>10 | s[17]<<22) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[17]>>7 | s[18]<<25) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[18]>>4 | s[19]<<28) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[19] >> 1) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[19]>>30 | s[20]<<2) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[20]>>27 | s[21]<<5) & 0x1FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[21]>>24 | s[22]<<8) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[22]>>21 | s[23]<<11) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[23]>>18 | s[24]<<14) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[24]>>15 | s[25]<<17) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[25]>>12 | s[26]<<20) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[26]>>9 | s[27]<<23) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[27]>>6 | s[28]<<26) & 0x1FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[28] >> 3
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x30 refines len(dst) groups of 32 30-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x30(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*30:]
		_ = s[29]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>30 | s[1]<<2) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>28 | s[2]<<4) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>26 | s[3]<<6) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>24 | s[4]<<8) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>22 | s[5]<<10) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>20 | s[6]<<12) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>18 | s[7]<<14) & 0x3FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>16 | s[8]<<16) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>14 | s[9]<<18) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9]>>12 | s[10]<<20) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[10]>>10 | s[11]<<22) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[11]>>8 | s[12]<<24) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[12]>>6 | s[13]<<26) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[13]>>4 | s[14]<<28) & 0x3FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[14] >> 2
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[15] & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[15]>>30 | s[16]<<2) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[16]>>28 | s[17]<<4) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[17]>>26 | s[18]<<6) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[18]>>24 | s[19]<<8) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[19]>>22 | s[20]<<10) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[20]>>20 | s[21]<<12) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[21]>>18 | s[22]<<14) & 0x3FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[22]>>16 | s[23]<<16) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[23]>>14 | s[24]<<18) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[24]>>12 | s[25]<<20) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[25]>>10 | s[26]<<22) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[26]>>8 | s[27]<<24) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[27]>>6 | s[28]<<26) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[28]>>4 | s[29]<<28) & 0x3FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[29] >> 2
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x31 refines len(dst) groups of 32 31-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x31(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*31:]
		_ = s[30]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0] & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = (s[0]>>31 | s[1]<<1) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = (s[1]>>30 | s[2]<<2) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = (s[2]>>29 | s[3]<<3) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = (s[3]>>28 | s[4]<<4) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = (s[4]>>27 | s[5]<<5) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = (s[5]>>26 | s[6]<<6) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = (s[6]>>25 | s[7]<<7) & 0x7FFFFFFF
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = (s[7]>>24 | s[8]<<8) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = (s[8]>>23 | s[9]<<9) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = (s[9]>>22 | s[10]<<10) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = (s[10]>>21 | s[11]<<11) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = (s[11]>>20 | s[12]<<12) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = (s[12]>>19 | s[13]<<13) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = (s[13]>>18 | s[14]<<14) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = (s[14]>>17 | s[15]<<15) & 0x7FFFFFFF
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = (s[15]>>16 | s[16]<<16) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = (s[16]>>15 | s[17]<<17) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = (s[17]>>14 | s[18]<<18) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = (s[18]>>13 | s[19]<<19) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = (s[19]>>12 | s[20]<<20) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = (s[20]>>11 | s[21]<<21) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = (s[21]>>10 | s[22]<<22) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = (s[22]>>9 | s[23]<<23) & 0x7FFFFFFF
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = (s[23]>>8 | s[24]<<24) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = (s[24]>>7 | s[25]<<25) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = (s[25]>>6 | s[26]<<26) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = (s[26]>>5 | s[27]<<27) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = (s[27]>>4 | s[28]<<28) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = (s[28]>>3 | s[29]<<29) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = (s[29]>>2 | s[30]<<30) & 0x7FFFFFFF
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[30] >> 1
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// refmask32x32 refines len(dst) groups of 32 32-bit codes from src:
// dst[g] is replaced by dst[g] AND the group's match mask for the code
// range [lo, lo+span] (unsigned, wrap-safe). Groups already empty are
// skipped without extracting any code.
func refmask32x32(dst, src []uint32, lo, span uint32) {
	for g := range dst {
		m := dst[g]
		if m == 0 {
			continue
		}
		s := src[g*32:]
		_ = s[31]
		var m0, m1, m2, m3 uint32
		var v uint32
		v = s[0]
		m0 |= uint32(inRange(v, lo, span)) << 0
		v = s[1]
		m0 |= uint32(inRange(v, lo, span)) << 1
		v = s[2]
		m0 |= uint32(inRange(v, lo, span)) << 2
		v = s[3]
		m0 |= uint32(inRange(v, lo, span)) << 3
		v = s[4]
		m0 |= uint32(inRange(v, lo, span)) << 4
		v = s[5]
		m0 |= uint32(inRange(v, lo, span)) << 5
		v = s[6]
		m0 |= uint32(inRange(v, lo, span)) << 6
		v = s[7]
		m0 |= uint32(inRange(v, lo, span)) << 7
		v = s[8]
		m1 |= uint32(inRange(v, lo, span)) << 8
		v = s[9]
		m1 |= uint32(inRange(v, lo, span)) << 9
		v = s[10]
		m1 |= uint32(inRange(v, lo, span)) << 10
		v = s[11]
		m1 |= uint32(inRange(v, lo, span)) << 11
		v = s[12]
		m1 |= uint32(inRange(v, lo, span)) << 12
		v = s[13]
		m1 |= uint32(inRange(v, lo, span)) << 13
		v = s[14]
		m1 |= uint32(inRange(v, lo, span)) << 14
		v = s[15]
		m1 |= uint32(inRange(v, lo, span)) << 15
		v = s[16]
		m2 |= uint32(inRange(v, lo, span)) << 16
		v = s[17]
		m2 |= uint32(inRange(v, lo, span)) << 17
		v = s[18]
		m2 |= uint32(inRange(v, lo, span)) << 18
		v = s[19]
		m2 |= uint32(inRange(v, lo, span)) << 19
		v = s[20]
		m2 |= uint32(inRange(v, lo, span)) << 20
		v = s[21]
		m2 |= uint32(inRange(v, lo, span)) << 21
		v = s[22]
		m2 |= uint32(inRange(v, lo, span)) << 22
		v = s[23]
		m2 |= uint32(inRange(v, lo, span)) << 23
		v = s[24]
		m3 |= uint32(inRange(v, lo, span)) << 24
		v = s[25]
		m3 |= uint32(inRange(v, lo, span)) << 25
		v = s[26]
		m3 |= uint32(inRange(v, lo, span)) << 26
		v = s[27]
		m3 |= uint32(inRange(v, lo, span)) << 27
		v = s[28]
		m3 |= uint32(inRange(v, lo, span)) << 28
		v = s[29]
		m3 |= uint32(inRange(v, lo, span)) << 29
		v = s[30]
		m3 |= uint32(inRange(v, lo, span)) << 30
		v = s[31]
		m3 |= uint32(inRange(v, lo, span)) << 31
		dst[g] = m & (m0 | m1 | m2 | m3)
	}
}

// unpack32 dispatches to the unrolled kernel for each bit width.
var unpack32 = [33]func(dst *[32]uint32, src []uint32){
	unpack32x0,
	unpack32x1,
	unpack32x2,
	unpack32x3,
	unpack32x4,
	unpack32x5,
	unpack32x6,
	unpack32x7,
	unpack32x8,
	unpack32x9,
	unpack32x10,
	unpack32x11,
	unpack32x12,
	unpack32x13,
	unpack32x14,
	unpack32x15,
	unpack32x16,
	unpack32x17,
	unpack32x18,
	unpack32x19,
	unpack32x20,
	unpack32x21,
	unpack32x22,
	unpack32x23,
	unpack32x24,
	unpack32x25,
	unpack32x26,
	unpack32x27,
	unpack32x28,
	unpack32x29,
	unpack32x30,
	unpack32x31,
	unpack32x32,
}

// pack32 dispatches to the unrolled kernel for each bit width.
var pack32 = [33]func(dst []uint32, src *[32]uint32){
	pack32x0,
	pack32x1,
	pack32x2,
	pack32x3,
	pack32x4,
	pack32x5,
	pack32x6,
	pack32x7,
	pack32x8,
	pack32x9,
	pack32x10,
	pack32x11,
	pack32x12,
	pack32x13,
	pack32x14,
	pack32x15,
	pack32x16,
	pack32x17,
	pack32x18,
	pack32x19,
	pack32x20,
	pack32x21,
	pack32x22,
	pack32x23,
	pack32x24,
	pack32x25,
	pack32x26,
	pack32x27,
	pack32x28,
	pack32x29,
	pack32x30,
	pack32x31,
	pack32x32,
}

// selmask32 dispatches to the unrolled compare/select kernel for each bit
// width.
var selmask32 = [33]func(dst, src []uint32, lo, span uint32){
	selmask32x0,
	selmask32x1,
	selmask32x2,
	selmask32x3,
	selmask32x4,
	selmask32x5,
	selmask32x6,
	selmask32x7,
	selmask32x8,
	selmask32x9,
	selmask32x10,
	selmask32x11,
	selmask32x12,
	selmask32x13,
	selmask32x14,
	selmask32x15,
	selmask32x16,
	selmask32x17,
	selmask32x18,
	selmask32x19,
	selmask32x20,
	selmask32x21,
	selmask32x22,
	selmask32x23,
	selmask32x24,
	selmask32x25,
	selmask32x26,
	selmask32x27,
	selmask32x28,
	selmask32x29,
	selmask32x30,
	selmask32x31,
	selmask32x32,
}

// refmask32 dispatches to the unrolled mask-refining compare kernel for
// each bit width.
var refmask32 = [33]func(dst, src []uint32, lo, span uint32){
	refmask32x0,
	refmask32x1,
	refmask32x2,
	refmask32x3,
	refmask32x4,
	refmask32x5,
	refmask32x6,
	refmask32x7,
	refmask32x8,
	refmask32x9,
	refmask32x10,
	refmask32x11,
	refmask32x12,
	refmask32x13,
	refmask32x14,
	refmask32x15,
	refmask32x16,
	refmask32x17,
	refmask32x18,
	refmask32x19,
	refmask32x20,
	refmask32x21,
	refmask32x22,
	refmask32x23,
	refmask32x24,
	refmask32x25,
	refmask32x26,
	refmask32x27,
	refmask32x28,
	refmask32x29,
	refmask32x30,
	refmask32x31,
	refmask32x32,
}
