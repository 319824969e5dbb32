package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/disk"
	"repro/internal/fileserver"
	"repro/internal/lfs"
	"repro/internal/raid"
	"repro/internal/sim"
)

// E16PowerFailure reproduces §5's power-failure analysis: the two-copy
// protocol protects against independent failures only; when power takes
// client and server down together, buffered writes survive only with
// battery-backed memory or a UPS ("the server has time to write its
// volatile-memory buffers to disk and halt").
func E16PowerFailure() Result {
	res := Result{
		ID:    "E16",
		Title: "power failure: UPS / battery-backed RAM / unprotected (§5)",
		Notes: "40 acked files; 20 durably logged, 20 still in the 30 s window when power fails; the client dies too, so no agent replay",
	}
	run := func(mode fileserver.PowerProtection) (intact, total int, replayedKB float64) {
		s := sim.New()
		arr := raid.New(s, disk.DefaultParams(), 64<<10, 256)
		fs := lfs.New(s, arr, lfs.DefaultConfig(64<<10))
		sv := fileserver.NewServer(s, fs)
		sv.WriteDelay = 30 * sim.Second
		sv.Power = mode

		content := map[string][]byte{}
		write := func(i int) {
			name := fmt.Sprintf("/f%d", i)
			data := bytes.Repeat([]byte{byte(i + 1)}, 3000+i*101)
			content[name] = data
			if err := sv.Create(name, false); err != nil {
				panic(err)
			}
			if err := sv.Write(name, 0, data); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 20; i++ {
			write(i)
		}
		s.RunUntil(sim.Second)
		sv.Flush(res.done) // first batch is durable
		s.Run()
		for i := 20; i < 40; i++ {
			write(i)
		}
		s.RunUntil(2 * sim.Second) // second batch still buffered

		sv.PowerFail(res.done)
		s.Run()
		sv.RecoverFromPower(func(err error) {
			if err != nil {
				panic(err)
			}
		})
		s.Run()

		for name, want := range content {
			if !sv.Exists(name) {
				continue
			}
			var got []byte
			sv.Read(name, 0, len(want), func(b []byte, err error) { got = b })
			s.Run()
			if bytes.Equal(got, want) {
				intact++
			}
		}
		return intact, len(content), float64(sv.Stats.NVRAMReplayed) / 1e3
	}

	for _, mode := range []fileserver.PowerProtection{
		fileserver.Unprotected, fileserver.UPS, fileserver.BatteryBacked,
	} {
		intact, total, replayed := run(mode)
		paper := "buffered writes lost"
		if mode != fileserver.Unprotected {
			paper = "no data loss"
		}
		extra := ""
		if replayed > 0 {
			extra = fmt.Sprintf(", %.1f KB replayed from NVRAM", replayed)
		}
		res.Addf(mode.String(), paper, "%d/%d acked files intact%s", intact, total, extra)
	}
	return res
}
