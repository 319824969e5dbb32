package fileserver

// Power-failure protection (§5). The client-agent copy protects against
// *independent* crashes; a power failure takes client and server down
// together, so the paper arms the server with either battery-backed
// memory or a UPS: "With the latter, when a power failure occurs, the
// server has time to write its volatile-memory buffers to disk and
// halt."

import "fmt"

// PowerProtection selects the server's guard against losing volatile
// write-behind buffers when the whole site loses power.
type PowerProtection int

const (
	// Unprotected servers lose every buffered write on a power failure.
	Unprotected PowerProtection = iota
	// UPS keeps the server alive just long enough to drain its buffers
	// to the log and checkpoint before halting.
	UPS
	// BatteryBacked memory preserves the buffer contents across the
	// outage; restart re-applies them.
	BatteryBacked
)

// String names the protection mode.
func (p PowerProtection) String() string {
	switch p {
	case UPS:
		return "UPS"
	case BatteryBacked:
		return "battery-backed RAM"
	default:
		return "unprotected"
	}
}

// nvramFile is one file's volatile state preserved by battery-backed
// memory.
type nvramFile struct {
	name       string
	continuous bool
	size       int64
	pending    []pendingWrite
}

// PowerFail models a site-wide power failure: the client is gone (its
// agent copies with it) and the server halts. What survives depends on
// sv.Power. done fires when the failure is complete — for a UPS server
// that is after the emergency flush has reached the disks, with that
// flush's error: buffered writes it could not log are lost.
func (sv *Server) PowerFail(done func(error)) {
	sv.Stats.PowerFailures++
	switch sv.Power {
	case UPS:
		// The UPS window: drain everything and checkpoint, then halt.
		sv.Flush(func(err error) {
			sv.Crash()
			if err != nil {
				err = fmt.Errorf("fileserver: UPS flush before halting: %w", err)
			}
			done(err)
		})
	case BatteryBacked:
		sv.nvram = sv.snapshotVolatile()
		sv.Crash()
		done(nil)
	default:
		sv.Crash()
		done(nil)
	}
}

// snapshotVolatile captures every file with buffered writes, as
// battery-backed memory would preserve it.
func (sv *Server) snapshotVolatile() []nvramFile {
	var out []nvramFile
	for _, p := range sv.List() {
		st := sv.files[p]
		if len(st.pending) == 0 {
			continue
		}
		nf := nvramFile{name: st.name, continuous: st.continuous, size: st.size}
		for _, w := range st.pending {
			nf.pending = append(nf.pending, pendingWrite{
				off:  w.off,
				data: append([]byte(nil), w.data...),
			})
		}
		out = append(out, nf)
	}
	return out
}

// RecoverFromPower restarts the server after a power failure: normal
// crash recovery first, then — on a battery-backed server — the
// preserved buffer contents are re-applied to the log before service
// resumes.
func (sv *Server) RecoverFromPower(done func(error)) {
	sv.Recover(func(err error) {
		if err != nil {
			done(err)
			return
		}
		saved := sv.nvram
		sv.nvram = nil
		for _, nf := range saved {
			st, ok := sv.files[nf.name]
			if !ok {
				// The file never reached the name map: recreate it from
				// the preserved metadata.
				st = &fileState{name: nf.name, continuous: nf.continuous}
				sv.files[nf.name] = st
			}
			if nf.size > st.size {
				st.size = nf.size
			}
			for _, w := range nf.pending {
				if aerr := sv.applyWrite(st, w.off, w.data); aerr != nil {
					done(aerr)
					return
				}
				sv.Stats.NVRAMReplayed += int64(len(w.data))
			}
		}
		if len(saved) > 0 {
			// The replayed data is in the log but the name map is not:
			// checkpoint before resuming service, or a second outage
			// would lose the bindings.
			sv.Flush(done)
			return
		}
		done(nil)
	})
}
