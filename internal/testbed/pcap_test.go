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
	if err := WritePcap(&buf, sink.Captured()); err != nil {
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

// TestPlayerFromPcapRoundTrip: a frame captured in one simulation, written
// to pcap and read back, can be put on the wire of a fresh simulation and
// arrives byte for byte.
func TestPlayerFromPcapRoundTrip(t *testing.T) {
	sim := netsim.New()
	src := NewIface(sim, "src", 100)
	rec := NewSink(sim, "rec", 100)
	rec.EnableCapture(0)
	Connect(sim, src, rec.Iface, 0)
	src.Send(udpFrame(t, 64, 7, 9))
	sim.Run()
	var buf bytes.Buffer
	if err := WritePcap(&buf, rec.Captured()); err != nil {
		t.Fatal(err)
	}
	frames, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}

	sim2 := netsim.New()
	player := NewIface(sim2, "player", 100)
	sink := NewSink(sim2, "s", 100)
	sink.EnableCapture(0)
	Connect(sim2, player, sink.Iface, 0)
	for _, f := range frames {
		player.Send(&netproto.Packet{Data: f.Data})
	}
	sim2.Run()
	if sink.Packets != 1 {
		t.Fatalf("packets = %d", sink.Packets)
	}
	if !bytes.Equal(sink.Captured()[0].Data, rec.Captured()[0].Data) {
		t.Fatal("replayed frame differs from the captured one")
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
