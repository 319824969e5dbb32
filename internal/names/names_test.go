package names_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/invoke"
	"repro/internal/names"
	"repro/internal/testutil"
)

func handle(tag string) *invoke.Maillon {
	i := invoke.NewInterface(tag)
	i.Define("tag", func([]byte) ([]byte, error) { return []byte(tag), nil })
	return invoke.LocalHandle(i, 0)
}

func tagOf(t *testing.T, h *invoke.Maillon) string {
	t.Helper()
	res, err := h.Invoke(nil, "tag", nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(res)
}

func TestBindAndResolve(t *testing.T) {
	ns := names.New()
	if err := ns.Bind("/dev/camera0", handle("cam")); err != nil {
		t.Fatal(err)
	}
	h, err := ns.Resolve("/dev/camera0")
	if err != nil {
		t.Fatal(err)
	}
	if tagOf(t, h) != "cam" {
		t.Fatal("wrong object resolved")
	}
}

func TestResolveMissing(t *testing.T) {
	ns := names.New()
	if _, err := ns.Resolve("/nope"); !errors.Is(err, names.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	ns.Bind("/a/b/c", handle("x"))
	if _, err := ns.Resolve("/a/b/zzz"); !errors.Is(err, names.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Resolving a directory is not an object resolution.
	if _, err := ns.Resolve("/a/b"); err == nil {
		t.Fatal("resolving a directory succeeded")
	}
}

func TestBindDuplicateFails(t *testing.T) {
	ns := names.New()
	ns.Bind("/x", handle("1"))
	if err := ns.Bind("/x", handle("2")); !errors.Is(err, names.ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestBadNamesRejected(t *testing.T) {
	ns := names.New()
	for _, p := range []string{"", "/a//b", "/a/./b", "/a/../b"} {
		if err := ns.Bind(p, handle("x")); err == nil {
			t.Fatalf("Bind(%q) succeeded", p)
		}
	}
}

func TestUnbind(t *testing.T) {
	ns := names.New()
	ns.Bind("/tmp/file", handle("f"))
	if err := ns.Unbind("/tmp/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Resolve("/tmp/file"); !errors.Is(err, names.ErrNotFound) {
		t.Fatal("resolved after unbind")
	}
	if err := ns.Unbind("/tmp/file"); !errors.Is(err, names.ErrNotFound) {
		t.Fatalf("second unbind err = %v", err)
	}
}

func TestList(t *testing.T) {
	ns := names.New()
	ns.Bind("/dev/camera0", handle("c0"))
	ns.Bind("/dev/camera1", handle("c1"))
	ns.Bind("/dev/audio", handle("a"))
	got, err := ns.ListPath("/dev")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"audio", "camera0", "camera1"}
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v (sorted)", got, want)
		}
	}
}

func TestMountForwardsResolution(t *testing.T) {
	remote := names.New()
	remote.Bind("/films/casablanca", handle("film"))

	local := names.New()
	local.Bind("/dev/cam", handle("cam"))
	if err := local.Mount("/n/mediaserver", remote); err != nil {
		t.Fatal(err)
	}
	h, err := local.Resolve("/n/mediaserver/films/casablanca")
	if err != nil {
		t.Fatal(err)
	}
	if tagOf(t, h) != "film" {
		t.Fatal("wrong object through mount")
	}
	// Listing through the mount.
	ls, err := local.ListPath("/n/mediaserver/films")
	if err != nil || len(ls) != 1 || ls[0] != "casablanca" {
		t.Fatalf("List through mount = %v, %v", ls, err)
	}
}

func TestResolveTraceCountsHops(t *testing.T) {
	remote := names.New()
	remote.Bind("/a/b/obj", handle("o"))
	local := names.New()
	local.Bind("/local", handle("l"))
	local.Mount("/n/r", remote)

	_, tr, err := local.ResolveTrace("/local")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Components != 1 || tr.RemoteHops != 0 {
		t.Fatalf("local trace = %+v", tr)
	}
	_, tr, err = local.ResolveTrace("/n/r/a/b/obj")
	if err != nil {
		t.Fatal(err)
	}
	if tr.RemoteHops != 1 {
		t.Fatalf("mounted trace = %+v, want 1 remote hop", tr)
	}
	if tr.Components <= 1 {
		t.Fatalf("mounted trace components = %d", tr.Components)
	}
}

func TestLocalNamesAreShort(t *testing.T) {
	// The design argument of §4: frequently used local objects sit near
	// the root, so their resolution walks fewer components than remote
	// ones. Encode it as a trace comparison.
	local := names.New()
	local.Bind("/cam", handle("cam"))
	remote := names.New()
	remote.Bind("/site/cambridge/lab/devices/cam7", handle("cam7"))
	local.Mount("/n/twente", remote)

	_, trLocal, _ := local.ResolveTrace("/cam")
	_, trRemote, err := local.ResolveTrace("/n/twente/site/cambridge/lab/devices/cam7")
	if err != nil {
		t.Fatal(err)
	}
	if trLocal.Components >= trRemote.Components {
		t.Fatalf("local components %d not below remote %d",
			trLocal.Components, trRemote.Components)
	}
	if trLocal.RemoteHops != 0 || trRemote.RemoteHops == 0 {
		t.Fatalf("hop counts wrong: %+v vs %+v", trLocal, trRemote)
	}
}

func TestNestedMounts(t *testing.T) {
	inner := names.New()
	inner.Bind("/obj", handle("deep"))
	mid := names.New()
	mid.Mount("/inner", inner)
	outer := names.New()
	outer.Mount("/mid", mid)
	h, tr, err := outer.ResolveTrace("/mid/inner/obj")
	if err != nil {
		t.Fatal(err)
	}
	if tagOf(t, h) != "deep" {
		t.Fatal("wrong object")
	}
	if tr.RemoteHops < 2 {
		t.Fatalf("remote hops = %d, want >= 2", tr.RemoteHops)
	}
}

func TestForkSharedSeesChanges(t *testing.T) {
	parent := names.New()
	parent.Bind("/shared/thing", handle("t"))
	child := parent.Fork(true)
	child.Bind("/shared/new", handle("n"))
	if _, err := parent.Resolve("/shared/new"); err != nil {
		t.Fatal("shared fork did not propagate to parent")
	}
}

func TestForkCopiedIsolates(t *testing.T) {
	parent := names.New()
	parent.Bind("/shared/thing", handle("t"))
	child := parent.Fork(false)
	child.Bind("/childonly", handle("c"))
	if _, err := parent.Resolve("/childonly"); err == nil {
		t.Fatal("copied fork leaked into parent")
	}
	// Both still see the inherited binding (handles shared by reference).
	hp, _ := parent.Resolve("/shared/thing")
	hc, _ := child.Resolve("/shared/thing")
	if hp != hc {
		t.Fatal("inherited handle not shared by reference")
	}
	// Child can rearrange without disturbing the parent.
	if err := child.Unbind("/shared/thing"); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Resolve("/shared/thing"); err != nil {
		t.Fatal("child unbind removed parent's name")
	}
}

func TestGlobalConvention(t *testing.T) {
	// §4: "one convention could … be the use of a subtree named /global
	// for global names". Two processes mount the same service there and
	// agree on names without any global root.
	shared := names.New()
	shared.Bind("/orgs/pegasus/storage", handle("store"))
	p1 := names.New()
	p2 := names.New()
	p1.Mount("/global", shared)
	p2.Mount("/global", shared)
	h1, err1 := p1.Resolve("/global/orgs/pegasus/storage")
	h2, err2 := p2.Resolve("/global/orgs/pegasus/storage")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if tagOf(t, h1) != "store" || tagOf(t, h2) != "store" {
		t.Fatal("conventional global names disagree")
	}
}

// Property: any set of distinct sanitised paths can be bound and each
// resolves back to its own handle.
func TestBindResolveProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ns := names.New()
		seen := make(map[string]bool)
		var paths []string
		for i, r := range raw {
			p := fmt.Sprintf("/p%d/q%d/obj%d", r%7, r%13, i)
			if seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p)
			if err := ns.Bind(p, handle(p)); err != nil {
				return false
			}
		}
		for _, p := range paths {
			h, err := ns.Resolve(p)
			if err != nil {
				return false
			}
			res, err := h.Invoke(nil, "tag", nil)
			if err != nil || string(res) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}
