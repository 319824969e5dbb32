package core_test

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/netsig"
)

// TestAllocVCIStaysBelowSignalling: a site numbers hand-patched circuits
// (AllocVCI) and signalled ones (Establish) from two counters on one
// switch. Were the first to run into the second's range, a Patch and an
// Establish on the same input port would share a VCI and merge into one
// circuit with two leaves. AllocVCI must refuse before that.
func TestAllocVCIStaysBelowSignalling(t *testing.T) {
	st := core.NewSite(core.SiteConfig{Ports: 4, LinkRate: fabric.Rate100M})
	a, b := st.Attach("a"), st.Attach("b")
	c, err := st.Signalling.Establish(a.Port, []int{b.Port}, 1_000_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if c.VCI <= netsig.VCIBase {
		t.Fatalf("first signalled circuit is VCI %d, want above VCIBase %d", c.VCI, netsig.VCIBase)
	}
	alloc := func() (v atm.VCI, refused bool) {
		defer func() { refused = recover() != nil }()
		return st.AllocVCI(), false
	}
	for n := 1; ; n++ {
		v, refused := alloc()
		if refused {
			if n < 800 {
				t.Fatalf("AllocVCI refused its call #%d", n)
			}
			break
		}
		if v >= netsig.VCIBase || v == c.VCI {
			t.Fatalf("AllocVCI call #%d returned %d: signalled circuits start at %d", n, v, c.VCI)
		}
	}
	if got := st.Switch.Leaves(a.Port, c.VCI); got != 1 {
		t.Fatalf("signalled circuit %d has %d leaves, want 1", c.VCI, got)
	}
}
