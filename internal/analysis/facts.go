package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a datum an analyzer attaches to a types.Object in the package that
// declares it, so analysis of importing packages can query it later — a
// stdlib-only miniature of go/analysis facts. Implementations must be
// gob-serializable pointers: facts are encoded when exported and decoded on
// import, which keeps them independent of any one type-checker's object
// identities (a dependency type-checked from source and the same dependency
// imported from export data produce distinct types.Object values for the
// same declaration).
type Fact interface {
	// AFact is a marker method; it has no behaviour.
	AFact()
}

// factStore holds the serialized facts of every package analyzed so far in
// one driver run. Packages are analyzed in dependency order (see
// RunPackages), so by the time a package is visited the facts of everything
// it imports are present. Keys are stable strings — package path, object
// path within the package, fact type — never object pointers, for the
// identity reason documented on Fact.
type factStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newFactStore() *factStore {
	return &factStore{m: map[string][]byte{}}
}

// objectFactKey names obj's fact of fact's dynamic type, or ok=false for
// objects facts cannot be attached to (no package, or an unsupported kind).
func objectFactKey(obj types.Object, fact Fact) (string, bool) {
	path, ok := ObjectPath(obj)
	if !ok {
		return "", false
	}
	return obj.Pkg().Path() + "::" + path + "::" + reflect.TypeOf(fact).String(), true
}

// ObjectPath is a package-relative path for obj that is identical whether
// obj came from type-checking the package's source or from importing its
// export data: "Name" for package-level objects, "Recv.Name" for methods.
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name(), true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name(), true
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj() == nil {
		return "", false
	}
	return named.Obj().Name() + "." + fn.Name(), true
}

func (s *factStore) set(key string, blob []byte) {
	s.mu.Lock()
	s.m[key] = blob
	s.mu.Unlock()
}

func (s *factStore) get(key string) ([]byte, bool) {
	s.mu.Lock()
	blob, ok := s.m[key]
	s.mu.Unlock()
	return blob, ok
}

// ExportObjectFact serializes fact and associates it with obj for importing
// packages (and later passes over the same package) to query. fact must be a
// pointer to a gob-encodable struct. Objects that cannot carry facts are
// silently skipped; encoding failures panic, since they are analyzer bugs.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		return
	}
	key, ok := objectFactKey(obj, fact)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
		panic(fmt.Sprintf("analysis: encoding fact %T for %v: %v", fact, obj, err))
	}
	p.facts.set(key, buf.Bytes())
}

// ImportObjectFact looks up the fact of *fact's type attached to obj by an
// earlier analysis (of this package or of a dependency) and decodes it into
// fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil {
		return false
	}
	key, ok := objectFactKey(obj, fact)
	if !ok {
		return false
	}
	blob, ok := p.facts.get(key)
	if !ok {
		return false
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(fact); err != nil {
		panic(fmt.Sprintf("analysis: decoding fact %T for %v: %v", fact, obj, err))
	}
	return true
}
