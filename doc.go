// Package repro is a from-scratch Go reproduction of "Super-Scalar RAM-CPU
// Cache Compression" (Zukowski, Héman, Nes, Boncz; ICDE 2006): the PFOR,
// PFOR-DELTA and PDICT patched compression schemes, a vectorized execution
// engine over a compressed-page buffer pool of the kind they were
// evaluated in, the baseline compressors the paper compares against, and
// harnesses that regenerate the tables and figures of the paper's
// evaluation.
//
// Import repro/zukowski for the public API: a unified Codec interface over
// every scheme, a name-indexed codec registry, and a streaming
// ColumnWriter/ColumnReader container, all with typed errors.
// repro/experiments regenerates the paper's evaluation. The kernels live
// under internal/, cmd/ holds the benchmark harnesses and examples/ the
// runnable examples. See README.md for a tour and a package map.
package repro
