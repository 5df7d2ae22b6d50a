package device

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry maps names to device factories. Open builds a fresh
// device per call so ablation or calibration state cannot leak between
// users (the same freshness contract the service's old private factory
// map provided).
var registry = struct {
	mu        sync.RWMutex
	factories map[string]func() (Device, error)
}{factories: map[string]func() (Device, error){}}

// Register adds a named device factory. It panics on an empty name, a
// nil factory, or a duplicate registration — registration happens at
// init time, where a misconfigured catalog should stop the program.
func Register(name string, factory func() (Device, error)) {
	if name == "" {
		panic("device: Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("device: Register(%q) with nil factory", name))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("device: duplicate Register(%q)", name))
	}
	registry.factories[name] = factory
}

// Open builds a fresh instance of the named device. The error for an
// unknown name enumerates the known ones, so callers (and the HTTP 400
// the service builds from it) are self-describing.
func Open(name string) (Device, error) {
	factory, err := factoryFor(name)
	if err != nil {
		return nil, err
	}
	d, err := factory()
	if err != nil {
		return nil, fmt.Errorf("device: opening %q: %w", name, err)
	}
	if d == nil {
		return nil, fmt.Errorf("device: factory for %q returned nil", name)
	}
	return d, nil
}

// CheckName reports whether name is registered, with Open's error for
// an unknown one, without building the device.
func CheckName(name string) error {
	_, err := factoryFor(name)
	return err
}

// factoryFor returns the named factory, or the error that enumerates the
// registered names.
func factoryFor(name string) (func() (Device, error), error) {
	registry.mu.RLock()
	factory, ok := registry.factories[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("device: unknown device %q (known: %s)", name, strings.Join(List(), ", "))
	}
	return factory, nil
}

// List returns the registered names in sorted (stable) order.
func List() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
