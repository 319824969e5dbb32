package media

import (
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func TestFrameGeometry(t *testing.T) {
	f := NewFrame(640, 480, 1)
	if f.TilesPerBand() != 80 {
		t.Fatalf("TilesPerBand = %d, want 80", f.TilesPerBand())
	}
	if f.Bands() != 60 {
		t.Fatalf("Bands = %d, want 60", f.Bands())
	}
	if len(f.Pix) != 640*480 {
		t.Fatalf("pixel buffer = %d, want %d", len(f.Pix), 640*480)
	}
}

func TestNewFramePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-tile-multiple size")
		}
	}()
	NewFrame(641, 480, 0)
}

func TestBandAndSetTileRoundTrip(t *testing.T) {
	src := SyntheticFrame(64, 32, 7)
	dst := NewFrame(64, 32, 7)
	for y := 0; y < src.H; y += TileH {
		for _, tile := range src.Band(y) {
			dst.SetTile(tile)
		}
	}
	if !src.Equal(dst) {
		t.Fatal("rebuilding frame from tiles lost pixels")
	}
}

func TestSetTileClips(t *testing.T) {
	f := NewFrame(16, 16, 0)
	var tile Tile
	for i := range tile.Pix {
		tile.Pix[i] = 0xFF
	}
	tile.X, tile.Y = 12, 12 // hangs over the right/bottom edges
	f.SetTile(tile)
	// In-range corner set, nothing out of range written (no panic), and
	// the visible 4x4 corner is 0xFF.
	for y := 12; y < 16; y++ {
		for x := 12; x < 16; x++ {
			if f.Pix[y*16+x] != 0xFF {
				t.Fatalf("pixel (%d,%d) not blitted", x, y)
			}
		}
	}
	if f.Pix[0] != 0 {
		t.Fatal("clipped tile wrote outside its region")
	}
}

func TestCompressLosslessAtQualityZero(t *testing.T) {
	f := SyntheticFrame(64, 64, 3)
	for y := 0; y < f.H; y += TileH {
		for _, tile := range f.Band(y) {
			c := CompressTile(tile.Pix[:], 0)
			got, err := DecompressTile(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != tile.Pix[i] {
					t.Fatalf("quality 0 not lossless at tile (%d,%d)", tile.X, tile.Y)
				}
			}
		}
	}
}

func TestCompressErrorBoundedByQuality(t *testing.T) {
	for q := uint8(1); q <= 4; q++ {
		src := SyntheticFrame(64, 64, 9)
		dst := NewFrame(64, 64, 9)
		for y := 0; y < src.H; y += TileH {
			for _, tile := range src.Band(y) {
				c := CompressTile(tile.Pix[:], q)
				pix, err := DecompressTile(c, q)
				if err != nil {
					t.Fatal(err)
				}
				var out Tile
				out.X, out.Y = tile.X, tile.Y
				copy(out.Pix[:], pix)
				dst.SetTile(out)
			}
		}
		bound := 1<<q - 1
		if d := src.MaxAbsDiff(dst); d > bound {
			t.Fatalf("quality %d: max error %d exceeds bound %d", q, d, bound)
		}
	}
}

func TestSmoothContentCompresses(t *testing.T) {
	f := SyntheticFrame(640, 480, 1)
	raw := f.W * f.H
	comp := CompressFrame(f, 2)
	if comp >= raw/2 {
		t.Fatalf("smooth frame compressed to %d of %d raw bytes; want < 50%%", comp, raw)
	}
}

func TestNoiseDoesNotCompressWell(t *testing.T) {
	f := NewFrame(64, 64, 0)
	// Deterministic "noise": multiplicative hash per pixel.
	for i := range f.Pix {
		f.Pix[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	comp := CompressFrame(f, 0)
	if comp < len(f.Pix) {
		t.Fatalf("noise compressed to %d < raw %d; RLE should not win here", comp, len(f.Pix))
	}
}

// Property: compress/decompress at quality 0 is the identity for any tile.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(pix [TileBytes]byte) bool {
		c := CompressTile(pix[:], 0)
		got, err := DecompressTile(c, 0)
		if err != nil || len(got) != TileBytes {
			return false
		}
		for i := range got {
			if got[i] != pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := DecompressTile([]byte{1}, 0); err == nil {
		t.Fatal("odd-length input accepted")
	}
	if _, err := DecompressTile([]byte{0, 5}, 0); err == nil {
		t.Fatal("zero run accepted")
	}
	// Runs that overflow the tile.
	if _, err := DecompressTile([]byte{255, 1, 255, 1}, 0); err == nil {
		t.Fatal("overlong tile accepted")
	}
	// Truncated tile.
	if _, err := DecompressTile([]byte{10, 1}, 0); err == nil {
		t.Fatal("short tile accepted")
	}
}

func TestGroupRoundTripUncompressed(t *testing.T) {
	f := SyntheticFrame(64, 16, 11)
	g := &TileGroup{FrameID: 11, Timestamp: 123456789, Tiles: f.Band(8)}
	b := EncodeGroup(g)
	got, err := DecodeGroup(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameID != 11 || got.Timestamp != 123456789 || got.Compressed {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Tiles) != len(g.Tiles) {
		t.Fatalf("tiles = %d, want %d", len(got.Tiles), len(g.Tiles))
	}
	for i := range got.Tiles {
		if got.Tiles[i] != g.Tiles[i] {
			t.Fatalf("tile %d mismatch", i)
		}
	}
}

func TestGroupRoundTripCompressed(t *testing.T) {
	f := SyntheticFrame(64, 16, 5)
	g := &TileGroup{FrameID: 5, Timestamp: 42, Quality: 0, Compressed: true, Tiles: f.Band(0)}
	b := EncodeGroup(g)
	raw := len(g.Tiles) * TileBytes
	if len(b) >= raw {
		t.Fatalf("compressed group %d bytes >= raw %d", len(b), raw)
	}
	got, err := DecodeGroup(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Tiles {
		if got.Tiles[i].Pix != g.Tiles[i].Pix {
			t.Fatalf("tile %d pixels corrupted by lossless group codec", i)
		}
		if got.Tiles[i].X != g.Tiles[i].X || got.Tiles[i].Y != g.Tiles[i].Y {
			t.Fatalf("tile %d coordinates lost", i)
		}
	}
}

func TestDecodeGroupRejectsCorruption(t *testing.T) {
	f := SyntheticFrame(32, 8, 1)
	g := &TileGroup{FrameID: 1, Tiles: f.Band(0)}
	b := EncodeGroup(g)
	if _, err := DecodeGroup(b[:len(b)-3]); err == nil {
		t.Fatal("truncated group accepted")
	}
	bad := append([]byte(nil), b...)
	bad[0] = 'X'
	if _, err := DecodeGroup(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeGroup(nil); err == nil {
		t.Fatal("nil group accepted")
	}
}

func TestAudioBlockRoundTrip(t *testing.T) {
	var a AudioBlock
	a.Timestamp = 987654321
	a.Seq = 17
	for i := range a.Samples {
		a.Samples[i] = int16(i*1000 - 9000)
	}
	enc := a.Encode()
	got, err := DecodeAudioBlock(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, a)
	}
}

func TestAudioBlockRejectsBadLength(t *testing.T) {
	if _, err := DecodeAudioBlock(make([]byte, 47)); err != ErrBadAudio {
		t.Fatalf("err = %v, want ErrBadAudio", err)
	}
}

// Property: audio encode/decode is the identity.
func TestAudioRoundTripProperty(t *testing.T) {
	f := func(ts uint64, seq uint32, samples [AudioSamplesPerBlock]int16) bool {
		a := AudioBlock{Timestamp: ts, Seq: seq, Samples: samples}
		enc := a.Encode()
		got, err := DecodeAudioBlock(enc[:])
		return err == nil && got == a
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestToneIsDeterministic(t *testing.T) {
	a := make([]AudioBlock, 4)
	b := make([]AudioBlock, 4)
	Tone(a, 0, 0)
	Tone(b, 0, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Tone not deterministic")
		}
	}
	if a[0].Seq != 0 || a[3].Seq != 3 {
		t.Fatalf("sequence numbers wrong: %d, %d", a[0].Seq, a[3].Seq)
	}
}

func BenchmarkCompressTile(b *testing.B) {
	f := SyntheticFrame(640, 480, 1)
	tiles := f.Band(0)
	b.SetBytes(TileBytes)
	for i := 0; i < b.N; i++ {
		CompressTile(tiles[i%len(tiles)].Pix[:], 2)
	}
}

func BenchmarkEncodeGroup(b *testing.B) {
	f := SyntheticFrame(640, 480, 1)
	g := &TileGroup{FrameID: 1, Compressed: true, Tiles: f.Band(0)}
	b.SetBytes(int64(len(g.Tiles) * TileBytes))
	for i := 0; i < b.N; i++ {
		EncodeGroup(g)
	}
}
