package serve

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"ctjam/internal/core"
	"ctjam/internal/policy"
)

// decidePolicy is what the serving layer needs from a model: the batched
// decision surface of policy.DQN. It is an interface so tests can substitute
// instrumented policies under the batcher.
type decidePolicy interface {
	StateDim() int
	NumActions() int
	DecideBatch(states []float64, actions []int) error
	QValuesBatch(dst, states []float64) error
}

// ModelSpec names one checkpoint to serve.
type ModelSpec struct {
	Name string // route segment: /v1/models/{name}/...
	Path string // checkpoint file (CTJM, CTDQ or CTTC)
}

// Model is one named checkpoint in the registry: the hot-swappable policy,
// its admission queue, and its serving counters. The policy pointer swaps
// atomically on reload; in-flight batches keep the policy they were pinned
// to, so every flush is evaluated by exactly one model generation.
type Model struct {
	name string
	path string

	pol     atomic.Pointer[polBox]
	reloads atomic.Int64

	batcher *Batcher
	stats   Stats
}

// polBox wraps the policy interface so the atomic pointer has one concrete
// type regardless of which decidePolicy implementation is loaded.
type polBox struct{ decidePolicy }

// Name returns the registry name.
func (m *Model) Name() string { return m.name }

// Path returns the checkpoint path the model reloads from.
func (m *Model) Path() string { return m.path }

// Reloads returns how many times the checkpoint has been (re)loaded.
func (m *Model) Reloads() int64 { return m.reloads.Load() }

// policy returns the current decision policy.
func (m *Model) policy() decidePolicy { return m.pol.Load().decidePolicy }

// Reload re-reads the checkpoint and atomically swaps the policy in;
// in-flight requests keep the policy they already hold, and a failed read
// keeps the previous policy serving.
func (m *Model) Reload() error {
	f, err := os.Open(m.path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := core.SnapshotFromCheckpoint(f)
	if err != nil {
		return fmt.Errorf("load %s: %w", m.path, err)
	}
	pol, err := policy.NewDQN(m.name, snap)
	if err != nil {
		return err
	}
	m.pol.Store(&polBox{pol})
	m.reloads.Add(1)
	return nil
}

// Registry holds the fixed set of named models one server process serves.
// The set is established at startup; what each name serves changes only via
// Reload. Lookups are lock-free map reads.
type Registry struct {
	models      map[string]*Model
	names       []string // sorted, for stable listings
	defaultName string
}

// NewRegistry loads every spec and builds the model set. The first spec is
// the default model (served on the legacy un-named routes) unless defaultName
// picks another. Each model gets its own admission queue with the given
// batch parameters.
func NewRegistry(specs []ModelSpec, defaultName string, maxBatch int, window time.Duration) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: registry needs at least one model")
	}
	r := &Registry{models: make(map[string]*Model, len(specs))}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: model %q needs a name", spec.Path)
		}
		if _, dup := r.models[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", spec.Name)
		}
		m := &Model{name: spec.Name, path: spec.Path}
		if err := m.Reload(); err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", spec.Name, err)
		}
		b, err := newBatcher(m, maxBatch, window)
		if err != nil {
			return nil, err
		}
		m.batcher = b
		r.models[spec.Name] = m
		r.names = append(r.names, spec.Name)
	}
	sort.Strings(r.names)
	r.defaultName = specs[0].Name
	if defaultName != "" {
		if _, ok := r.models[defaultName]; !ok {
			return nil, fmt.Errorf("serve: default model %q is not in the registry", defaultName)
		}
		r.defaultName = defaultName
	}
	return r, nil
}

// Lookup returns the named model, or nil if unknown.
func (r *Registry) Lookup(name string) *Model { return r.models[name] }

// Default returns the model behind the legacy un-named routes.
func (r *Registry) Default() *Model { return r.models[r.defaultName] }

// Names returns the model names in sorted order.
func (r *Registry) Names() []string { return r.names }

// ReloadAll reloads every model, returning the first error (remaining models
// still reload; a bad checkpoint must not block the others).
func (r *Registry) ReloadAll() error {
	var firstErr error
	for _, name := range r.names {
		if err := r.models[name].Reload(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// closeAll drains every model's admission queue.
func (r *Registry) closeAll() {
	for _, name := range r.names {
		r.models[name].batcher.Close()
	}
}
