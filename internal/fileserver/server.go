// Package fileserver implements the Pegasus storage service stacks of §5
// on top of the core layer (package lfs):
//
//   - a path-named file service with server-side delayed writes: data
//     sits in server memory (safe, by the two-copy argument below) for a
//     configurable window before entering the log, so the ~70% of data
//     that dies young never costs a disk write or creates garbage;
//   - a client agent implementing the paper's reliability protocol: the
//     client keeps a copy of every write until the server has flushed
//     it, so a crash of either single component loses nothing;
//   - a continuous-media stack that stores synchronised streams and
//     builds a time index from their control streams, enabling seeks,
//     fast-forward and reverse play.
package fileserver

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/lfs"
	"repro/internal/sim"
)

// Service errors.
var (
	ErrExists   = errors.New("fileserver: file exists")
	ErrNotFound = errors.New("fileserver: no such file")
)

// pendingWrite is a buffered, not-yet-logged write.
type pendingWrite struct {
	off  int64
	data []byte
}

// fileState is the server's view of one file.
type fileState struct {
	name       string
	continuous bool
	// pn is the core-layer file, once materialised (0 = not yet).
	pn lfs.Pnode
	// pending holds delayed writes, sorted by offset, non-overlapping.
	pending []pendingWrite
	applyEv *sim.Event
	size    int64
}

// ServerStats counts service-level activity; the write-behind numbers
// are what experiment E11 reports.
type ServerStats struct {
	Writes        int64
	WriteBytes    int64
	AbsorbedBytes int64 // overwritten while still buffered: no log cost
	AbsorbedFiles int64 // created and deleted entirely within the window
	AppliedBytes  int64 // bytes that did reach the log
	Reads         int64
	Deletes       int64
	Crashes       int64
	FlushNotifies int64
	PowerFailures int64
	NVRAMReplayed int64 // bytes restored from battery-backed memory
}

// Server is the Pegasus file server: a path-named service stack over the
// log-structured core.
type Server struct {
	sim *sim.Sim
	fs  *lfs.FS

	// WriteDelay is the write-behind window: how long data may sit in
	// server memory before being applied to the log. Zero means
	// write-through. The paper's design point is ~30 s, justified by
	// the Baker measurements and made safe by client-agent copies plus
	// a UPS on the server.
	WriteDelay sim.Duration

	// Power selects the protection against site-wide power failures,
	// where the client-agent copy cannot help (§5).
	Power PowerProtection

	files map[string]*fileState

	// nvram holds volatile state preserved by battery-backed memory
	// across a power failure.
	nvram []nvramFile

	// onFlushed notifies agents that a range is durably logged.
	onFlushed []func(path string)

	Stats ServerStats
}

// NewServer builds a file server over a freshly formatted core layer.
func NewServer(s *sim.Sim, fs *lfs.FS) *Server {
	return &Server{sim: s, fs: fs, files: make(map[string]*fileState)}
}

// FS exposes the core layer (experiments read its stats).
func (sv *Server) FS() *lfs.FS { return sv.fs }

// SubscribeFlush registers a durability callback (client agents).
func (sv *Server) SubscribeFlush(fn func(path string)) {
	sv.onFlushed = append(sv.onFlushed, fn)
}

// Create makes an empty file. Continuous files take the media path in
// the core layer.
func (sv *Server) Create(path string, continuous bool) error {
	if _, dup := sv.files[path]; dup {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	sv.files[path] = &fileState{name: path, continuous: continuous}
	return nil
}

// Exists reports whether a path is known.
func (sv *Server) Exists(path string) bool {
	_, ok := sv.files[path]
	return ok
}

// Size reports a file's logical size (including buffered writes).
func (sv *Server) Size(path string) (int64, error) {
	st, ok := sv.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return st.size, nil
}

// List returns all known paths, sorted.
func (sv *Server) List() []string {
	out := make([]string, 0, len(sv.files))
	for p := range sv.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Write buffers (or applies) a write. The returned error is the
// acceptance acknowledgement: once Write returns nil the server holds
// the data in memory and the two-copy invariant is in force. data is
// moved in: the slice belongs to the store from this call on; it may be
// shared with other writes, it may never be written again; the store
// keeps its whole backing array alive. Write-through hands it to the log
// as it is (lfs.FS.Write); write-behind buffers a copy of its own and
// hands that on when the window closes.
func (sv *Server) Write(path string, off int64, data []byte) error {
	st, ok := sv.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	sv.Stats.Writes++
	sv.Stats.WriteBytes += int64(len(data))
	if off+int64(len(data)) > st.size {
		st.size = off + int64(len(data))
	}
	if sv.WriteDelay <= 0 {
		return sv.applyWrite(st, off, data)
	}
	sv.bufferWrite(st, off, append([]byte(nil), data...))
	if st.applyEv == nil {
		st.applyEv = sv.sim.After(sv.WriteDelay, func() {
			st.applyEv = nil
			// What a failed drain leaves pending is the next Flush's to
			// retry and report.
			_ = sv.drain(st)
		})
	}
	return nil
}

// bufferWrite merges a write into the pending set, absorbing overlaps
// (the absorbed bytes are log writes and garbage that never happen).
func (sv *Server) bufferWrite(st *fileState, off int64, data []byte) {
	end := off + int64(len(data))
	var out []pendingWrite
	for _, p := range st.pending {
		pEnd := p.off + int64(len(p.data))
		if pEnd <= off || p.off >= end {
			out = append(out, p)
			continue
		}
		// Overlap: keep non-overlapped head/tail of the old write.
		overlap := min64(pEnd, end) - max64(p.off, off)
		sv.Stats.AbsorbedBytes += overlap
		if p.off < off {
			out = append(out, pendingWrite{off: p.off, data: p.data[:off-p.off]})
		}
		if pEnd > end {
			out = append(out, pendingWrite{off: end, data: p.data[end-p.off:]})
		}
	}
	out = append(out, pendingWrite{off: off, data: data})
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	st.pending = out
}

// drain applies the buffered writes of one file to the log, in offset
// order. At the first error it stops and returns it; that write and the
// ones after it stay pending, so the data is still the server's copy.
func (sv *Server) drain(st *fileState) error {
	for len(st.pending) > 0 {
		p := st.pending[0]
		if err := sv.applyWrite(st, p.off, p.data); err != nil {
			return err
		}
		st.pending = st.pending[1:]
	}
	st.pending = nil
	return nil
}

func (sv *Server) applyWrite(st *fileState, off int64, data []byte) error {
	if st.pn == 0 {
		st.pn = sv.fs.Create(st.continuous)
	}
	if err := sv.fs.Write(st.pn, off, data); err != nil {
		return err
	}
	sv.Stats.AppliedBytes += int64(len(data))
	return nil
}

// Read serves a read, combining logged data with buffered writes (the
// buffer is newer and wins). The slice is read-only and may alias the
// store: with no pending write over the range it is what the log
// returned; otherwise the pieces are laid over a private copy.
func (sv *Server) Read(path string, off int64, n int, done func([]byte, error)) {
	st, ok := sv.files[path]
	if !ok {
		done(nil, fmt.Errorf("%w: %s", ErrNotFound, path))
		return
	}
	sv.Stats.Reads++
	overlay := func(base []byte, owned bool) []byte {
		for _, p := range st.pending {
			lo := max64(p.off, off)
			hi := min64(p.off+int64(len(p.data)), off+int64(n))
			if lo < hi {
				if !owned {
					base, owned = append([]byte(nil), base...), true
				}
				copy(base[lo-off:hi-off], p.data[lo-p.off:hi-p.off])
			}
		}
		return base
	}
	if st.pn == 0 {
		done(overlay(make([]byte, n), true), nil)
		return
	}
	sv.fs.Read(st.pn, off, n, func(b []byte, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(overlay(b, false), nil)
	})
}

// Delete removes a file. A file that lived and died inside the
// write-behind window never touches the disk at all.
func (sv *Server) Delete(path string) error {
	st, ok := sv.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	sv.Stats.Deletes++
	if st.applyEv != nil {
		sv.sim.Cancel(st.applyEv)
		st.applyEv = nil
	}
	for _, p := range st.pending {
		sv.Stats.AbsorbedBytes += int64(len(p.data))
	}
	if st.pn == 0 && len(st.pending) > 0 {
		sv.Stats.AbsorbedFiles++
	}
	st.pending = nil
	delete(sv.files, path)
	if st.pn != 0 {
		return sv.fs.Delete(st.pn)
	}
	return nil
}

// Flush drains every buffer, seals the log and checkpoints; done fires
// when everything (including the name map, via the checkpoint) is
// durable, after which agents are notified they may drop their copies.
// If a buffer or the name map could not be logged, done gets that error
// and nobody is notified: what was not applied is still pending.
func (sv *Server) Flush(done func(error)) {
	names := sv.List()
	var first error
	for _, p := range names {
		st := sv.files[p]
		if st.applyEv != nil {
			sv.sim.Cancel(st.applyEv)
			st.applyEv = nil
		}
		if err := sv.drain(st); err != nil && first == nil {
			first = fmt.Errorf("fileserver: flush of %s: %w", p, err)
		}
	}
	if err := sv.writeNameMap(); err != nil && first == nil {
		first = fmt.Errorf("fileserver: flush of the name map: %w", err)
	}
	sv.fs.Checkpoint(func(err error) {
		if first != nil {
			err = first
		}
		if err != nil {
			done(err)
			return
		}
		for _, p := range names {
			for _, fn := range sv.onFlushed {
				sv.Stats.FlushNotifies++
				fn(p)
			}
		}
		done(nil)
	})
}

// The name map (path -> pnode, continuous, size) is itself a file in the
// core layer, rewritten at each flush. Its pnode is always the first
// ever allocated, which recovery relies on.
const nameMapMagic = "PGNM"

func (sv *Server) writeNameMap() error {
	blob := []byte(nameMapMagic)
	names := sv.List()
	blob = append(blob, byte(len(names)>>8), byte(len(names)))
	for _, p := range names {
		st := sv.files[p]
		if st.pn == 0 && st.size > 0 {
			// Materialise so the map can reference it.
			st.pn = sv.fs.Create(st.continuous)
		}
		blob = append(blob, byte(len(p)))
		blob = append(blob, p...)
		blob = append(blob, byte(st.pn>>24), byte(st.pn>>16), byte(st.pn>>8), byte(st.pn))
		if st.continuous {
			blob = append(blob, 1)
		} else {
			blob = append(blob, 0)
		}
		blob = append(blob,
			byte(st.size>>56), byte(st.size>>48), byte(st.size>>40), byte(st.size>>32),
			byte(st.size>>24), byte(st.size>>16), byte(st.size>>8), byte(st.size))
	}
	if !sv.fs.Exists(nameMapPnode) {
		// First flush ever: allocate the reserved pnode.
		if err := sv.fs.CreateAt(nameMapPnode, false); err != nil {
			panic("fileserver: reserved name-map pnode unavailable")
		}
	}
	// The map is rewritten wholesale each flush; the entry count in the
	// header makes any stale tail from a longer previous map harmless.
	return sv.fs.Write(nameMapPnode, 0, blob)
}

// nameMapPnode is the reserved core-layer file holding the name map;
// it lives below lfs.FirstPnode so it can never collide with a file.
const nameMapPnode lfs.Pnode = 2

// Crash models a server machine failure: everything volatile — buffered
// writes, the name map, core-layer state — is lost; the disks survive.
func (sv *Server) Crash() {
	sv.Stats.Crashes++
	sv.files = make(map[string]*fileState)
	sv.fs.Crash()
}

// Recover reloads the core layer and the name map.
func (sv *Server) Recover(done func(error)) {
	sv.fs.Recover(func(err error) {
		if err != nil {
			done(err)
			return
		}
		if !sv.fs.Exists(nameMapPnode) {
			done(nil) // nothing was ever flushed
			return
		}
		sz, _ := sv.fs.Size(nameMapPnode)
		sv.fs.Read(nameMapPnode, 0, int(sz), func(b []byte, err error) {
			if err != nil {
				done(err)
				return
			}
			done(sv.parseNameMap(b))
		})
	})
}

func (sv *Server) parseNameMap(b []byte) error {
	if len(b) < 6 || string(b[:4]) != nameMapMagic {
		return errors.New("fileserver: bad name map")
	}
	count := int(b[4])<<8 | int(b[5])
	p := 6
	for i := 0; i < count; i++ {
		if p >= len(b) {
			return errors.New("fileserver: truncated name map")
		}
		nl := int(b[p])
		p++
		if p+nl+13 > len(b) {
			return errors.New("fileserver: truncated name map")
		}
		name := string(b[p : p+nl])
		p += nl
		pn := lfs.Pnode(uint32(b[p])<<24 | uint32(b[p+1])<<16 | uint32(b[p+2])<<8 | uint32(b[p+3]))
		p += 4
		cont := b[p] == 1
		p++
		var size int64
		for j := 0; j < 8; j++ {
			size = size<<8 | int64(b[p+j])
		}
		p += 8
		st := &fileState{name: name, continuous: cont, pn: pn, size: size}
		if !sv.fs.Exists(pn) {
			// The file's data never reached the log (still buffered at
			// crash time): present it as empty; agents will replay.
			st.pn = 0
			st.size = 0
		}
		sv.files[name] = st
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
