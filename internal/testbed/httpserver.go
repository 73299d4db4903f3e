package testbed

import (
	"github.com/hypertester/hypertester/internal/netproto"
	"github.com/hypertester/hypertester/internal/netsim"
	"github.com/hypertester/hypertester/internal/obs"
)

// HTTPServerFarm emulates the server side of the paper's web-testing task
// (§5.4): it terminates TCP handshakes, serves an HTTP response as a fixed
// number of data packets, and closes connections. Unlike HyperTester's
// stateless client side, a server farm legitimately keeps per-connection
// state — it is the device under test.
type HTTPServerFarm struct {
	Iface *Iface

	// ResponsePackets is how many data packets one request produces
	// (the paper's example assumes a page loads in 5 packets).
	ResponsePackets int
	// ResponseSegment is the payload bytes per data packet.
	ResponseSegment int
	// ServiceDelay models server think time per event.
	ServiceDelay netsim.Duration

	// Statistics.
	SynReceived    uint64
	Handshakes     uint64
	Requests       uint64
	DataSent       uint64
	FinReceived    uint64
	Closed         uint64
	UnexpectedPkts uint64

	sim   *netsim.Sim
	conns map[netproto.FlowKey]*serverConn
	stack netproto.Stack
}

type serverConn struct {
	established bool
	srvSeq      uint32 // next server sequence number
}

// NewHTTPServerFarm builds a farm behind one interface.
func NewHTTPServerFarm(sim *netsim.Sim, name string, gbps float64) *HTTPServerFarm {
	f := &HTTPServerFarm{
		Iface:           NewIface(sim, name, gbps),
		ResponsePackets: 5,
		ResponseSegment: 1000,
		ServiceDelay:    2 * netsim.Microsecond,
		sim:             sim,
		conns:           make(map[netproto.FlowKey]*serverConn),
	}
	f.Iface.OnReceive(f.receive)
	return f
}

// OpenConnections reports connections currently tracked.
func (f *HTTPServerFarm) OpenConnections() int { return len(f.conns) }

// Describe records the farm's connection statistics under prefix.
func (f *HTTPServerFarm) Describe(r *obs.Registry, prefix string) {
	r.Num(prefix, "syn_received", float64(f.SynReceived))
	r.Num(prefix, "handshakes", float64(f.Handshakes))
	r.Num(prefix, "requests", float64(f.Requests))
	r.Num(prefix, "data_sent", float64(f.DataSent))
	r.Num(prefix, "fin_received", float64(f.FinReceived))
	r.Num(prefix, "closed", float64(f.Closed))
	r.Num(prefix, "open_conns", float64(f.OpenConnections()))
}

func (f *HTTPServerFarm) receive(pkt *netproto.Packet) {
	if err := f.stack.Decode(pkt.Data); err != nil || !f.stack.Has(netproto.LayerTCP) {
		f.UnexpectedPkts++
		return
	}
	key, _ := netproto.FlowFromStack(&f.stack)
	tcp := f.stack.TCP
	ip := f.stack.IP4
	eth := f.stack.Eth
	payloadLen := len(f.stack.Payload)

	reply := func(flags uint8, seq, ack uint32, payload []byte) {
		raw, err := netproto.BuildTCP(netproto.TCPSpec{
			SrcMAC: eth.Dst, DstMAC: eth.Src,
			SrcIP: ip.Dst, DstIP: ip.Src,
			SrcPort: tcp.DstPort, DstPort: tcp.SrcPort,
			Seq: seq, Ack: ack, Flags: flags,
			Payload: payload, FrameLen: 64,
		})
		if err != nil {
			return
		}
		f.Iface.Send(&netproto.Packet{Data: raw})
	}

	switch {
	case tcp.Flags&netproto.TCPSyn != 0 && tcp.Flags&netproto.TCPAck == 0:
		f.SynReceived++
		// Deterministic ISN derived from the flow, so retransmitted SYNs
		// get consistent answers.
		isn := uint32(key.SrcIP) ^ uint32(key.DstIP)<<16 ^ uint32(key.SrcPort)
		f.conns[key] = &serverConn{srvSeq: isn + 1}
		f.sim.After(f.ServiceDelay, func() {
			reply(netproto.TCPSyn|netproto.TCPAck, isn, tcp.Seq+1, nil)
		})

	case tcp.Flags&netproto.TCPFin != 0:
		f.FinReceived++
		if _, ok := f.conns[key]; ok {
			delete(f.conns, key)
			f.Closed++
		}
		f.sim.After(f.ServiceDelay, func() {
			reply(netproto.TCPFin|netproto.TCPAck, tcp.Ack, tcp.Seq+1, nil)
		})

	case payloadLen > 0 && tcp.Flags&netproto.TCPPsh != 0:
		// HTTP request: serve the page as ResponsePackets data packets.
		conn, ok := f.conns[key]
		if !ok {
			f.UnexpectedPkts++
			return
		}
		if !conn.established {
			conn.established = true
			f.Handshakes++
		}
		f.Requests++
		clientNext := tcp.Seq + uint32(payloadLen)
		for i := 0; i < f.ResponsePackets; i++ {
			i := i
			seq := conn.srvSeq
			conn.srvSeq += uint32(f.ResponseSegment)
			f.sim.After(f.ServiceDelay+netsim.Duration(i)*netsim.Microsecond, func() {
				f.DataSent++
				body := make([]byte, f.ResponseSegment)
				raw, err := netproto.BuildTCP(netproto.TCPSpec{
					SrcMAC: eth.Dst, DstMAC: eth.Src,
					SrcIP: ip.Dst, DstIP: ip.Src,
					SrcPort: tcp.DstPort, DstPort: tcp.SrcPort,
					Seq: seq, Ack: clientNext,
					Flags:   netproto.TCPPsh | netproto.TCPAck,
					Payload: body,
				})
				if err != nil {
					return
				}
				f.Iface.Send(&netproto.Packet{Data: raw})
			})
		}

	case tcp.Flags&netproto.TCPAck != 0:
		// Bare ACK: completes a handshake or acknowledges data.
		if conn, ok := f.conns[key]; ok && !conn.established {
			conn.established = true
			f.Handshakes++
		}

	default:
		f.UnexpectedPkts++
	}
}
