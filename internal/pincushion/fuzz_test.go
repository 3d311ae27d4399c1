package pincushion

import (
	"encoding/json"
	"maps"
	"testing"
	"time"

	"txcache/internal/clock"
	"txcache/internal/interval"
	"txcache/internal/rpc"
	"txcache/internal/wire"
)

// retiredRelease is the opcode Release was sent with. No client sends it
// any more, and the daemon refuses it as unknown.
const retiredRelease byte = 0x23

// FuzzPincushionHandle feeds arbitrary request frames to the daemon's
// handler, behind the transport's dispatch: it must never panic, must answer
// a request with pins, an ack, its stats or an error and a one-way frame
// with nothing, must refuse a retired Release, and no frame but a
// well-formed Register may change the registry.
func FuzzPincushionHandle(f *testing.F) {
	now := time.Unix(0, int64(time.Hour))
	for _, id := range []uint32{0, 7} { // one-way, and as a request
		frame := func(op byte) *wire.Buffer { return wire.NewBuffer(op).U32(id) }
		f.Add(frame(opGetPins).I64(int64(30 * time.Second)).Bytes())
		f.Add(frame(opGetPins).Bytes()) // truncated
		f.Add(frame(opRegister).U64(9).I64(now.UnixNano()).Bytes())
		f.Add(frame(opRegister).U64(9).Bytes()) // truncated
		f.Add(frame(retiredRelease).U32(2).U64(3).U64(4).Bytes())
		f.Add(frame(retiredRelease).U32(0xFFFFFFFF).U64(3).Bytes()) // claims 4Gi timestamps, carries one
		f.Add(frame(retiredRelease).Bytes())
		f.Add(frame(rpc.OpErr).Str("not a request").Bytes())
		f.Add(frame(rpc.OpStats).Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2, 3})

	f.Fuzz(func(t *testing.T, frame []byte) {
		clk := &clock.Virtual{}
		p := New(Config{Clock: clk})
		p.Register(3, clk.Now())
		p.Register(4, clk.Now())
		before := maps.Clone(p.pins)

		reply := rpc.Dispatch(p.Handle, frame)

		oneWay := len(frame) < 5 || frame[1]|frame[2]|frame[3]|frame[4] == 0
		switch {
		case oneWay:
			if reply != nil {
				t.Fatalf("one-way frame %x was answered: %x", frame, reply.Bytes())
			}
		case reply == nil:
			t.Fatalf("request %x got no reply", frame)
		default:
			op := frame[0]
			d := wire.NewDecoder(reply.Bytes())
			got := d.Op()
			d.U32() // the request ID
			switch {
			case op == retiredRelease && got != rpc.OpErr:
				t.Fatalf("retired Release %x answered with opcode %d", frame, got)
			case got == rpc.OpErr:
				if d.Str(); d.Err() != nil {
					t.Fatalf("malformed error reply: %x", reply.Bytes())
				}
			case got == rpc.OpAck && op == opRegister:
			case got == rpc.OpStats && op == rpc.OpStats:
				if err := json.Unmarshal(reply.Bytes()[5:], new(Stats)); err != nil {
					t.Fatalf("stats reply does not decode: %v", err)
				}
			case got == opPins && op == opGetPins:
				n := d.U32()
				if int(n) != d.Len()/16 || d.Len()%16 != 0 {
					t.Fatalf("pins reply claims %d pins in %d bytes", n, d.Len())
				}
				for i := uint32(0); i < n; i++ {
					if ts := interval.Timestamp(d.U64()); ts != 3 && ts != 4 {
						t.Fatalf("pins reply names snapshot %d, which nobody registered", ts)
					}
					d.I64()
				}
			default:
				t.Fatalf("opcode %d answered with opcode %d", op, got)
			}
		}

		// Only a well-formed Register changes the registry, and only at the
		// snapshot it names; every other pin keeps its timestamp and wall time.
		p.mu.Lock()
		after := maps.Clone(p.pins)
		p.mu.Unlock()
		if len(frame) >= 5+16 && frame[0] == opRegister {
			ts := interval.Timestamp(wire.NewDecoder(frame[5:]).U64())
			delete(before, ts)
			delete(after, ts)
		}
		if !maps.EqualFunc(before, after, time.Time.Equal) {
			t.Fatalf("frame %x changed the registry from %v to %v", frame, before, after)
		}
	})
}
