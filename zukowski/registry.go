package zukowski

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// The codec registry maps (name, element type) to a constructor, so tools
// and benchmarks enumerate schemes instead of hard-coding them. The
// built-ins are the paper's patched schemes plus none and auto, registered
// for all eight Integer element types at init time; user codecs join via
// Register. The paper's comparators (the byte-stream and inverted-file
// codecs) are measured by its figures, not stored, and are not here.

type registryKey struct {
	name string
	elem reflect.Type
}

var (
	registryMu sync.RWMutex
	registry   = map[registryKey]func() any{}
	// registryNames keeps unique names in registration order.
	registryNames []string
)

// Register adds a codec constructor under a name for element type T. It
// overwrites a previous registration of the same (name, T) pair, which
// lets applications shadow a built-in with a tuned variant.
func Register[T Integer](name string, factory func() Codec[T]) {
	registryMu.Lock()
	defer registryMu.Unlock()
	key := registryKey{name, reflect.TypeFor[T]()}
	if _, exists := registry[key]; !exists && !slices.Contains(registryNames, name) {
		registryNames = append(registryNames, name)
	}
	registry[key] = func() any { return factory() }
}

// Lookup returns the codec registered under name for element type T, or
// ErrUnknownCodec.
func Lookup[T Integer](name string) (Codec[T], error) {
	registryMu.RLock()
	factory, ok := registry[registryKey{name, reflect.TypeFor[T]()}]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q for element type %v", ErrUnknownCodec, name, reflect.TypeFor[T]())
	}
	return factory().(Codec[T]), nil
}

// Codecs returns the names of all registered codecs in registration order
// (built-ins first). The slice is a copy; callers may keep it.
func Codecs() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return slices.Clone(registryNames)
}

// registerBuiltins registers every built-in codec for one element type.
func registerBuiltins[T Integer]() {
	Register("pfor", func() Codec[T] { return PFOR[T]{} })
	Register("pfor-delta", func() Codec[T] { return PFORDelta[T]{} })
	Register("pdict", func() Codec[T] { return PDict[T]{} })
	Register("none", func() Codec[T] { return None[T]{} })
	Register("auto", func() Codec[T] { return Auto[T]{} })
}

func init() {
	registerBuiltins[int8]()
	registerBuiltins[int16]()
	registerBuiltins[int32]()
	registerBuiltins[int64]()
	registerBuiltins[uint8]()
	registerBuiltins[uint16]()
	registerBuiltins[uint32]()
	registerBuiltins[uint64]()
}
