package devices

import (
	"repro/internal/media"
)

// WindowManager is the §2.1 window manager: it exerts all its control
// "over the creation and modification of these descriptors", and it
// owns "a window descriptor that allows it to write the whole screen
// for decorating windows with title bars and resize buttons". The
// decoration window sits at the bottom of the z-order so client pixels
// always win inside their own windows.
type WindowManager struct {
	d    *Display
	deco *Window

	// TitleHeight is the decoration bar height in pixels.
	TitleHeight int
	// TitleShade is the pixel value of title bars.
	TitleShade byte

	managed []*Window
}

// ManagerVCI is the conventional circuit for the whole-screen window.
const ManagerVCI = 15

// NewWindowManager attaches a manager to a display, creating its
// whole-screen decoration window at the bottom of the z-order.
func NewWindowManager(d *Display) *WindowManager {
	wm := &WindowManager{d: d, TitleHeight: 8, TitleShade: 0xCC}
	wm.deco = d.CreateWindow(ManagerVCI, 0, 0, d.Screen().W, d.Screen().H)
	d.LowerWindow(wm.deco)
	return wm
}

// Manage registers a client window and draws its decorations.
func (wm *WindowManager) Manage(w *Window) {
	wm.managed = append(wm.managed, w)
	wm.redecorate()
}

// Move repositions a managed window and redraws decorations.
func (wm *WindowManager) Move(w *Window, x, y int) {
	wm.d.MoveWindow(w, x, y)
	wm.redecorate()
}

// redecorate paints a title bar above every managed window by blitting
// tiles through the whole-screen window — the manager is just another
// tile source as far as the display is concerned.
func (wm *WindowManager) redecorate() {
	for _, w := range wm.managed {
		if !w.Enabled {
			continue
		}
		wm.paintBar(w.X, w.Y-wm.TitleHeight, w.W)
	}
}

// paintBar blits a TitleHeight-tall bar at (x, y) of width wd.
func (wm *WindowManager) paintBar(x, y, wd int) {
	if y < 0 {
		y = 0
	}
	for cx := 0; cx < wd; cx += media.TileW {
		var t media.Tile
		for i := range t.Pix {
			if i/media.TileW < wm.TitleHeight {
				t.Pix[i] = wm.TitleShade
			}
		}
		t.X, t.Y = x+cx, y
		g := &media.TileGroup{Tiles: []media.Tile{t}}
		wm.d.handleGroup(ManagerVCI, g)
	}
}
