package testbed

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

func TestPcapRoundTrip(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	sink := NewSink(sim, "sink", 100)
	sink.EnableCapture(0)
	Connect(sim, src, sink.Iface, 0)
	for i := 0; i < 5; i++ {
		src.Send(udpFrame(t, 64+i, uint16(1000+i), 53))
	}
	sim.Run()

	if len(sink.Captured()) != 5 {
		t.Fatalf("captured %d frames", len(sink.Captured()))
	}
	var buf bytes.Buffer
	if err := sink.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	frames, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Fatalf("read %d frames", len(frames))
	}
	for i, f := range frames {
		want := sink.Captured()[i]
		// pcap stores nanosecond resolution; sub-ns is truncated.
		if int64(f.At)/1000 != int64(want.At)/1000 {
			t.Fatalf("frame %d timestamp %v != %v", i, f.At, want.At)
		}
		if !bytes.Equal(f.Data, want.Data) {
			t.Fatalf("frame %d data mismatch", i)
		}
		var st netproto.Stack
		if err := st.Decode(f.Data); err != nil {
			t.Fatalf("frame %d not decodable: %v", i, err)
		}
		if st.UDP.SrcPort != uint16(1000+i) {
			t.Fatalf("frame %d sport %d", i, st.UDP.SrcPort)
		}
	}
}

func TestPcapCaptureBound(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	sink := NewSink(sim, "sink", 100)
	sink.EnableCapture(3)
	Connect(sim, src, sink.Iface, 0)
	for i := 0; i < 10; i++ {
		src.Send(udpFrame(t, 64, 1, 2))
	}
	sim.Run()
	if len(sink.Captured()) != 3 {
		t.Fatalf("captured %d, want cap of 3", len(sink.Captured()))
	}
	if sink.Packets != 10 {
		t.Fatal("counting must continue past the capture cap")
	}
}

func TestPcapHeaderValidation(t *testing.T) {
	bad := bytes.NewReader(append([]byte{1, 2, 3, 4}, make([]byte, 20)...))
	if _, err := ReadPcap(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadPcap(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestPlayerPreservesTiming(t *testing.T) {
	// Record a paced stream, replay it elsewhere, compare gaps.
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	rec := NewSink(sim, "rec", 100)
	rec.EnableCapture(0)
	Connect(sim, src, rec.Iface, 0)
	for i := 0; i < 10; i++ {
		i := i
		sim.At(netsim.Time(i)*netsim.Time(5*netsim.Microsecond), func() {
			src.Send(udpFrame(t, 64, uint16(i), 2))
		})
	}
	sim.Run()

	sim2 := netsim.New()
	replaySink := NewSink(sim2, "replay", 100)
	replaySink.RecordTimestamps = true
	player := NewPlayer(sim2, rec.Captured())
	sim2.RunFor(netsim.Millisecond) // start replay mid-simulation
	player.ReplayInto(replaySink.Iface)
	sim2.Run()

	if player.Replayed != 10 || replaySink.Packets != 10 {
		t.Fatalf("replayed %d, sink %d", player.Replayed, replaySink.Packets)
	}
	gaps := replaySink.Timestamps
	for i := 1; i < len(gaps); i++ {
		gap := gaps[i] - gaps[i-1]
		if gap < 4990 || gap > 5010 {
			t.Fatalf("gap %d = %.0fns, want ~5000", i, gap)
		}
	}
}

func TestPlayerSpeedup(t *testing.T) {
	frames := []CapturedFrame{
		{At: 0, Data: make([]byte, 64)},
		{At: netsim.Time(10 * netsim.Microsecond), Data: make([]byte, 64)},
	}
	sim := netsim.New()
	sink := NewSink(sim, "s", 100)
	sink.RecordTimestamps = true
	p := NewPlayer(sim, frames)
	p.Speedup = 2
	p.ReplayInto(sink.Iface)
	sim.Run()
	gap := sink.Timestamps[1] - sink.Timestamps[0]
	if gap < 4900 || gap > 5100 {
		t.Fatalf("2x replay gap = %.0fns, want ~5000", gap)
	}
}

func TestPlayerFromPcapRoundTrip(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	rec := NewSink(sim, "rec", 100)
	rec.EnableCapture(0)
	Connect(sim, src, rec.Iface, 0)
	src.Send(udpFrame(t, 64, 7, 9))
	sim.Run()
	var buf bytes.Buffer
	if err := rec.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	sim2 := netsim.New()
	p, err := NewPlayerFromPcap(sim2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink(sim2, "s", 100)
	p.ReplayInto(sink.Iface)
	sim2.Run()
	if sink.Packets != 1 {
		t.Fatalf("packets = %d", sink.Packets)
	}
}

// FuzzReadPcap: the pcap reader never panics on any bytes, and every capture
// it accepts survives WritePcap → ReadPcap unchanged — timestamps included,
// so a record whose time netsim cannot represent must be refused, not
// wrapped. Seeds are under testdata/fuzz/FuzzReadPcap.
func FuzzReadPcap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := ReadPcap(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, frames); err != nil {
			t.Fatalf("WritePcap of an accepted capture: %v", err)
		}
		again, err := ReadPcap(&buf)
		if err != nil {
			t.Fatalf("ReadPcap rejects what WritePcap wrote: %v", err)
		}
		if !reflect.DeepEqual(again, frames) {
			t.Fatalf("capture changed across a write and a read:\n got %v\nwant %v", again, frames)
		}
	})
}
