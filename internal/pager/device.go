package pager

import (
	"fmt"
	"os"
	"sync"
)

// Device is raw page-addressed storage beneath a Store. Page indexes are
// zero-based at this layer; the Store maps its one-based PageIDs onto them.
type Device interface {
	// ReadPage fills p with the contents of the page at index idx.
	ReadPage(idx uint32, p []byte) error
	// WritePage stores p as the contents of the page at index idx,
	// growing the device if needed.
	WritePage(idx uint32, p []byte) error
	// Sync forces written pages to durable storage. Callers that persist
	// a catalog must Sync before Close, or a crash can lose the index.
	Sync() error
	// Close releases any resources held by the device.
	Close() error
}

// MemDevice is an in-memory Device. It is the default backend for tests and
// benchmarks: I/O counting happens in the Store, so a RAM backend measures
// exactly the same I/O-model cost as a disk backend, only faster. It is
// safe for concurrent use, like a real disk.
type MemDevice struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
}

// NewMemDevice returns an empty in-memory device with the given page size.
func NewMemDevice(pageSize int) *MemDevice {
	return &MemDevice{pageSize: pageSize}
}

// NewMemDeviceFrom returns an in-memory device whose contents are pages:
// pages[i] becomes page index i as is, without a copy, so the device owns
// the slices from then on and later writes land in them. A nil entry is a
// hole, like every index past the end. It is the bulk-load entry for
// contents read from elsewhere, such as a checkpoint file loaded whole.
func NewMemDeviceFrom(pageSize int, pages [][]byte) (*MemDevice, error) {
	for i, p := range pages {
		if p != nil && len(p) != pageSize {
			return nil, fmt.Errorf("memdevice: page %d: %w: got %d, want %d", i, ErrPageSize, len(p), pageSize)
		}
	}
	return &MemDevice{pageSize: pageSize, pages: pages}, nil
}

// ReadPage implements Device. A page that was never written holds no
// data a structure could have put there, so reading it is a wrapped
// ErrCorrupt — never zeroes.
func (d *MemDevice) ReadPage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(idx) >= len(d.pages) || d.pages[idx] == nil {
		return fmt.Errorf("memdevice: page %d never written: %w", idx, ErrCorrupt)
	}
	copy(p, d.pages[idx])
	return nil
}

// WritePage implements Device.
func (d *MemDevice) WritePage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for int(idx) >= len(d.pages) {
		d.pages = append(d.pages, nil)
	}
	if d.pages[idx] == nil {
		d.pages[idx] = make([]byte, d.pageSize)
	}
	copy(d.pages[idx], p)
	return nil
}

// Sync implements Device. RAM is as durable as a MemDevice gets, so it is
// a no-op.
func (d *MemDevice) Sync() error { return nil }

// NumPages returns the number of page slots the device has grown to —
// written pages plus any holes below them. Crash tests use it to dump a
// device's durable image to a file; never-written slots read as zeroes
// there, like holes in a sparse file.
func (d *MemDevice) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Close implements Device. It drops the page storage.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = nil
	return nil
}

// FileDevice is a Device backed by a single file, with page i stored at
// byte offset i * pageSize. It gives the library a persistent backend for
// the command-line tools.
type FileDevice struct {
	f        *os.File
	pageSize int
}

// OpenFileDevice opens (creating if necessary) a file-backed device.
func OpenFileDevice(path string, pageSize int) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedevice: %w", err)
	}
	return &FileDevice{f: f, pageSize: pageSize}, nil
}

// ReadPage implements Device.
func (d *FileDevice) ReadPage(idx uint32, p []byte) error {
	_, err := d.f.ReadAt(p, int64(idx)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("filedevice: read page %d: %w", idx, err)
	}
	return nil
}

// WritePage implements Device.
func (d *FileDevice) WritePage(idx uint32, p []byte) error {
	_, err := d.f.WriteAt(p, int64(idx)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("filedevice: write page %d: %w", idx, err)
	}
	return nil
}

// Sync implements Device: fsync. WritePage goes through the OS page
// cache, so a crash between the last write and Sync can lose pages; the
// build path syncs after persisting the catalog.
func (d *FileDevice) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("filedevice: sync: %w", err)
	}
	return nil
}

// Close implements Device. It closes the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }
