package zukowski_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/zukowski"
)

// TestRegistryBuiltins: the registry reports every built-in scheme — the
// paper's patched schemes plus none and auto — for every element type, and
// none of the comparators the paper measures but does not store.
func TestRegistryBuiltins(t *testing.T) {
	names := zukowski.Codecs()
	for _, want := range []string{"pfor", "pfor-delta", "pdict", "none", "auto"} {
		if !slices.Contains(names, want) {
			t.Errorf("registry is missing %q (have %v)", want, names)
		}
	}
	for _, retired := range []string{"for", "dict", "vbyte", "flate", "lzw", "lzrw1"} {
		if slices.Contains(names, retired) {
			t.Errorf("registry still holds comparator %q (have %v)", retired, names)
		}
		if _, err := zukowski.Lookup[int64](retired); !errors.Is(err, zukowski.ErrUnknownCodec) {
			t.Errorf("Lookup(%q) err = %v, want ErrUnknownCodec", retired, err)
		}
	}
	// Every name resolves for every element type, and the codec's Name
	// matches its registry key.
	for _, name := range names {
		c, err := zukowski.Lookup[uint16](name)
		if err != nil {
			t.Errorf("Lookup[uint16](%q): %v", name, err)
			continue
		}
		if c.Name() != name {
			t.Errorf("codec %q reports Name() = %q", name, c.Name())
		}
	}
}

// TestCodecsDeterministicOrder: Codecs() is a stable, documented order —
// registration order, built-ins first — not map iteration order. Tools
// that enumerate codecs (codecbench tables, the scan service's
// capability listing, loadgen output) rely on two invocations agreeing.
// User registrations append after this prefix, so the test pins the
// built-in prefix exactly and then checks a second call returns an
// identical snapshot.
func TestCodecsDeterministicOrder(t *testing.T) {
	wantPrefix := []string{"pfor", "pfor-delta", "pdict", "none", "auto"}
	names := zukowski.Codecs()
	if len(names) < len(wantPrefix) {
		t.Fatalf("Codecs() = %v, want at least the %d built-ins", names, len(wantPrefix))
	}
	if !slices.Equal(names[:len(wantPrefix)], wantPrefix) {
		t.Fatalf("built-in codec order changed:\n got %v\nwant %v", names[:len(wantPrefix)], wantPrefix)
	}
	if again := zukowski.Codecs(); !slices.Equal(names, again) {
		t.Fatalf("two Codecs() calls disagree:\n first %v\nsecond %v", names, again)
	}
}

// TestRegistryUnknown: unknown names return ErrUnknownCodec.
func TestRegistryUnknown(t *testing.T) {
	if _, err := zukowski.Lookup[int64]("no-such-codec"); !errors.Is(err, zukowski.ErrUnknownCodec) {
		t.Fatalf("err = %v, want ErrUnknownCodec", err)
	}
}

// xorCodec is a trivial user codec for registration tests.
type xorCodec struct{ zukowski.None[int32] }

func (xorCodec) Name() string { return "xor-test" }

// TestRegisterUserCodec: user codecs join the registry and resolve only
// for the element type they were registered under.
func TestRegisterUserCodec(t *testing.T) {
	zukowski.Register[int32]("xor-test", func() zukowski.Codec[int32] { return xorCodec{} })
	if !slices.Contains(zukowski.Codecs(), "xor-test") {
		t.Fatal("registered codec missing from Codecs()")
	}
	if _, err := zukowski.Lookup[int32]("xor-test"); err != nil {
		t.Fatalf("Lookup[int32]: %v", err)
	}
	if _, err := zukowski.Lookup[int64]("xor-test"); !errors.Is(err, zukowski.ErrUnknownCodec) {
		t.Fatalf("Lookup[int64] err = %v, want ErrUnknownCodec", err)
	}
}

// quickstartColumn rebuilds the column of examples/quickstart: clustered
// dates with sparse wide outliers.
func quickstartColumn() []int64 {
	rng := rand.New(rand.NewSource(1))
	column := make([]int64, 1_000_000)
	for i := range column {
		column[i] = 730_000 + rng.Int63n(2048)
		if rng.Intn(1000) == 0 {
			column[i] = rng.Int63n(1 << 40)
		}
	}
	return column
}

// TestAutoMatchesChoose: the Auto codec must make the same decision as the
// internal analyzer it wraps, both in Analyze and in the frame it emits.
func TestAutoMatchesChoose(t *testing.T) {
	column := quickstartColumn()
	want := core.Choose(core.Sample(column, core.DefaultSampleSize))

	auto := zukowski.Auto[int64]{}
	if a := auto.Analyze(column); a.Scheme != want.Scheme.String() {
		t.Fatalf("Analyze chose %s, core.Choose chose %s", a.Scheme, want.Scheme)
	}
	frame, err := auto.Encode(nil, column)
	if err != nil {
		t.Fatal(err)
	}
	st, err := auto.Stats(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != want.Scheme.String() {
		t.Fatalf("Auto encoded %s, core.Choose chose %s", st.Scheme, want.Scheme)
	}
	if st.BitWidth != want.B {
		t.Fatalf("Auto encoded b=%d, core.Choose chose b=%d", st.BitWidth, want.B)
	}
}
