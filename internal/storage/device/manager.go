package device

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Manager plays the role of the operating system file manager: it hands out
// named devices ("files"), each with one of the five supported block sizes.
// A Manager either keeps all devices in memory (dir == "") or maps each name
// to a file in a directory.
type Manager struct {
	dir string

	mu      sync.Mutex
	devices map[string]Device
	wrap    func(name string, d Device) Device
	closed  bool
}

// NewManager creates a file manager. If dir is empty all devices are
// in-memory; otherwise devices persist as files under dir.
func NewManager(dir string) *Manager {
	return &Manager{dir: dir, devices: make(map[string]Device)}
}

// SetWrap installs a hook applied to every device created after this call:
// Open returns wrap(name, d) instead of the raw device. Fault-injection
// tests use it to interpose FaultDevices below the whole storage stack.
// Devices already open are not rewrapped.
func (m *Manager) SetWrap(wrap func(name string, d Device) Device) {
	m.mu.Lock()
	m.wrap = wrap
	m.mu.Unlock()
}

// Open returns the device with the given name, creating it if necessary.
// Reopening an existing name returns the same device and requires the same
// block size.
func (m *Manager) Open(name string, blockSize int) (Device, error) {
	if !ValidBlockSize(blockSize) {
		return nil, ErrBadBlockSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if d, ok := m.devices[name]; ok {
		if d.BlockSize() != blockSize {
			return nil, fmt.Errorf("device: %q already open with block size %d, requested %d", name, d.BlockSize(), blockSize)
		}
		return d, nil
	}
	var (
		d   Device
		err error
	)
	if m.dir == "" {
		d, err = NewMem(blockSize)
	} else {
		d, err = OpenFile(filepath.Join(m.dir, name), blockSize)
	}
	if err != nil {
		return nil, err
	}
	if m.wrap != nil {
		d = m.wrap(name, d)
	}
	m.devices[name] = d
	return d, nil
}

// Remove closes and deletes the named device (dropping the backing file for
// directory-backed managers). A name that is not open still has its backing
// file deleted, so stale files from a previous process — e.g. a log segment
// whose removal failed before a crash — can be reclaimed. The write-ahead
// log uses it to recycle segments behind the checkpoint.
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	d, ok := m.devices[name]
	if !ok {
		if m.dir != "" {
			if err := os.Remove(filepath.Join(m.dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("device: remove %q: %w", name, err)
			}
		}
		return nil
	}
	delete(m.devices, name)
	if err := d.Close(); err != nil {
		return fmt.Errorf("device: remove %q: %w", name, err)
	}
	if m.dir != "" {
		if err := os.Remove(filepath.Join(m.dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("device: remove %q: %w", name, err)
		}
	}
	return nil
}

// Names returns the names of all open devices in sorted order.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.devices))
	for n := range m.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Stats aggregates the I/O statistics of all open devices.
func (m *Manager) Stats() IOStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total IOStats
	for _, d := range m.devices {
		total = total.Add(d.Stats())
	}
	return total
}

// ResetStats zeroes the counters of all open devices.
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.devices {
		d.ResetStats()
	}
}

// Sync flushes every open device.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, d := range m.devices {
		if err := d.Sync(); err != nil {
			return fmt.Errorf("device: sync %q: %w", name, err)
		}
	}
	return nil
}

// Close closes every open device. The first error is returned but all
// devices are closed regardless.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.closed = true
	var first error
	for name, d := range m.devices {
		if err := d.Close(); err != nil && first == nil {
			first = fmt.Errorf("device: close %q: %w", name, err)
		}
	}
	m.devices = nil
	return first
}
