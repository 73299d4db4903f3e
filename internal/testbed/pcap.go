package testbed

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
)

// Capture support: sinks can retain full frames and export them as a
// nanosecond-resolution pcap file readable by tcpdump/Wireshark — the
// capture half of a network tester's job.

// CapturedFrame is one retained frame with its arrival time.
type CapturedFrame struct {
	At   netsim.Time
	Data []byte
}

// EnableCapture makes the sink retain up to max frames (0 = unlimited). Call
// it before traffic starts: like Sink.OnPacket, enabling it while frames a
// switch port accounts to the sink are in flight panics at the next sync.
func (s *Sink) EnableCapture(max int) {
	s.captureMax = max
	s.capturing = true
}

// Captured returns the retained frames.
func (s *Sink) Captured() []CapturedFrame { return s.captured }

// pcap constants: nanosecond-resolution classic pcap, LINKTYPE_ETHERNET.
const (
	pcapMagicNs  = 0xa1b23c4d
	pcapVerMajor = 2
	pcapVerMinor = 4
	pcapSnapLen  = 65535
	pcapLinkEth  = 1
)

// WritePcap writes the captured frames as a nanosecond-precision pcap
// stream.
func WritePcap(w io.Writer, frames []CapturedFrame) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNs)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVerMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVerMinor)
	// thiszone, sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkEth)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("pcap header: %w", err)
	}
	rec := make([]byte, 16)
	for i := range frames {
		f := &frames[i]
		ps := int64(f.At)
		sec := ps / 1e12
		nsec := (ps % 1e12) / 1e3
		binary.LittleEndian.PutUint32(rec[0:4], uint32(sec))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(nsec))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(f.Data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(f.Data)))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("pcap record %d: %w", i, err)
		}
		if _, err := w.Write(f.Data); err != nil {
			return fmt.Errorf("pcap record %d data: %w", i, err)
		}
	}
	return nil
}

// ReadPcap parses a pcap stream written by WritePcap (round-trip testing
// and trace inspection).
//
//htlint:ignore deadexport the reader that checks WritePcap's output (FuzzReadPcap, the round trips)
func ReadPcap(r io.Reader) ([]CapturedFrame, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pcap header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	if magic != pcapMagicNs {
		return nil, fmt.Errorf("pcap magic %#x unsupported (want ns-resolution %#x)", magic, uint32(pcapMagicNs))
	}
	var out []CapturedFrame
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("pcap record header: %w", err)
		}
		sec := int64(binary.LittleEndian.Uint32(rec[0:4]))
		nsec := int64(binary.LittleEndian.Uint32(rec[4:8]))
		if sec > (math.MaxInt64-nsec*1e3)/1e12 {
			return nil, fmt.Errorf("pcap record time %d.%09ds is past the end of simulated time", sec, nsec)
		}
		n := binary.LittleEndian.Uint32(rec[8:12])
		if n > pcapSnapLen {
			return nil, fmt.Errorf("pcap record too large: %d", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("pcap record data: %w", err)
		}
		out = append(out, CapturedFrame{
			At:   netsim.Time(sec*1e12 + nsec*1e3),
			Data: data,
		})
	}
}

// captureFrame is called from the sink's receive path.
func (s *Sink) captureFrame(pkt *netproto.Packet, at netsim.Time) {
	if !s.capturing {
		return
	}
	if s.captureMax > 0 && len(s.captured) >= s.captureMax {
		return
	}
	data := make([]byte, len(pkt.Data))
	copy(data, pkt.Data)
	s.captured = append(s.captured, CapturedFrame{At: at, Data: data})
}
