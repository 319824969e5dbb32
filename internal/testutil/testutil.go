// Package testutil holds the helpers more than one package's tests
// share.
package testutil

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// Quick returns a quick.Check config whose inputs are drawn from a
// source seeded by the test's name, so every run of a property checks
// the same inputs. maxCount 0 is quick's default.
func Quick(t testing.TB, maxCount int) *quick.Config {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// Hold watches read results from another goroutine until the returned
// stop is called. A read result may be a view of the store, so a write
// to the memory behind it is a data race (-race reports it), and a
// changed byte fails the test either way.
func Hold(t testing.TB, views ...[]byte) (stop func()) {
	want := make([][]byte, len(views))
	for i, v := range views {
		want[i] = bytes.Clone(v)
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for last := false; !last; runtime.Gosched() {
			select {
			case <-quit:
				last = true // one more look after the writer has finished
			default:
			}
			for i, v := range views {
				if !bytes.Equal(v, want[i]) {
					t.Errorf("held read result %d changed", i)
					return
				}
			}
		}
	}()
	return func() { close(quit); <-exited }
}

// HeapAlloc collects garbage and reports the bytes still allocated on
// the heap.
func HeapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
