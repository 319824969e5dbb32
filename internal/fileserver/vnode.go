package fileserver

import (
	"errors"
	"fmt"
)

// VNodeLayer is the Unix v-node interface of §5: "a Unix v-node
// interface is installed which allows the storage system to be used as
// a Unix file system." It maps descriptor-based Unix file semantics
// (open/read/write/lseek/close/unlink) onto the Pegasus service stack,
// so the Unix side of a split application sees ordinary files.
type VNodeLayer struct {
	sv *Server

	fds    map[int]*vnode
	nextFD int

	// Stats
	Opens, Closes int64
}

// vnode is one open descriptor.
type vnode struct {
	path string
	off  int64
	rdwr bool
}

// VNode open flags.
const (
	ORdOnly = 0
	ORdWr   = 1 << iota
	OCreate
	OTrunc
)

// Whence values for Seek, matching Unix.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Errors of the v-node layer.
var (
	ErrBadFD    = errors.New("vnode: bad file descriptor")
	ErrReadOnly = errors.New("vnode: descriptor is read-only")
)

// NewVNodeLayer wraps a server.
func NewVNodeLayer(sv *Server) *VNodeLayer {
	return &VNodeLayer{sv: sv, fds: make(map[int]*vnode), nextFD: 3}
}

// Open returns a descriptor for path.
func (v *VNodeLayer) Open(path string, flags int) (int, error) {
	if !v.sv.Exists(path) {
		if flags&OCreate == 0 {
			return -1, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		if err := v.sv.Create(path, false); err != nil {
			return -1, err
		}
	} else if flags&OTrunc != 0 {
		// Truncate = delete + recreate (the log makes this cheap).
		if err := v.sv.Delete(path); err != nil {
			return -1, err
		}
		if err := v.sv.Create(path, false); err != nil {
			return -1, err
		}
	}
	fd := v.nextFD
	v.nextFD++
	v.fds[fd] = &vnode{path: path, rdwr: flags&ORdWr != 0}
	v.Opens++
	return fd, nil
}

// Close releases a descriptor.
func (v *VNodeLayer) Close(fd int) error {
	if _, ok := v.fds[fd]; !ok {
		return ErrBadFD
	}
	delete(v.fds, fd)
	v.Closes++
	return nil
}

// Write appends at the descriptor's offset, advancing it. p stays the
// caller's, as with any io.Writer: the store is handed a copy taken here.
func (v *VNodeLayer) Write(fd int, p []byte) (int, error) {
	n, ok := v.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	if !n.rdwr {
		return 0, ErrReadOnly
	}
	if err := v.sv.Write(n.path, n.off, append([]byte(nil), p...)); err != nil {
		return 0, err
	}
	n.off += int64(len(p))
	return len(p), nil
}

// Read fills p from the descriptor's offset, advancing it; short reads
// happen at end of file. done receives the byte count.
func (v *VNodeLayer) Read(fd int, p []byte, done func(int, error)) {
	n, ok := v.fds[fd]
	if !ok {
		done(0, ErrBadFD)
		return
	}
	size, err := v.sv.Size(n.path)
	if err != nil {
		done(0, err)
		return
	}
	if n.off >= size {
		done(0, nil) // EOF
		return
	}
	want := int64(len(p))
	if n.off+want > size {
		want = size - n.off
	}
	v.sv.Read(n.path, n.off, int(want), func(b []byte, err error) {
		if err != nil {
			done(0, err)
			return
		}
		copy(p, b)
		n.off += int64(len(b))
		done(len(b), nil)
	})
}

// Seek repositions a descriptor, returning the new offset.
func (v *VNodeLayer) Seek(fd int, off int64, whence int) (int64, error) {
	n, ok := v.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = n.off
	case SeekEnd:
		sz, err := v.sv.Size(n.path)
		if err != nil {
			return 0, err
		}
		base = sz
	default:
		return 0, errors.New("vnode: bad whence")
	}
	if base+off < 0 {
		return 0, errors.New("vnode: negative offset")
	}
	n.off = base + off
	return n.off, nil
}

// Unlink removes a file by name.
func (v *VNodeLayer) Unlink(path string) error { return v.sv.Delete(path) }

// Stat reports a file's size.
func (v *VNodeLayer) Stat(path string) (int64, error) { return v.sv.Size(path) }

// Readdir lists all files (the flat namespace plays the directory).
func (v *VNodeLayer) Readdir() []string { return v.sv.List() }
