package dbnet

import (
	"encoding/json"
	"testing"
	"time"

	"txcache/internal/db"
	"txcache/internal/invalidation"
	"txcache/internal/pincushion"
	"txcache/internal/rpc"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

// FuzzDBNetHandle feeds arbitrary request frames to a session's handler,
// behind the transport's dispatch, on a server that hosts a pincushion as
// txcache-dbd does: it must never panic, must believe no count prefix beyond
// the bytes that actually arrived — an argument count of 0xFFFFFFFF used to
// kill the daemon with an allocation no recover catches — must answer a
// request with exactly one well-formed frame and a one-way frame with
// nothing, must leave the session's transactions alone for a pincushion
// frame, and must leave nothing open once the connection drops.
func FuzzDBNetHandle(f *testing.F) {
	stmt := func(op byte, n uint32, args ...sql.Value) []byte {
		e := wire.NewBuffer(op).U32(1).U64(1)
		if err := appendValues(e.Str("SELECT v FROM kv WHERE k = ?").U32(n), args); err != nil {
			f.Fatal(err)
		}
		return e.Bytes()
	}
	// first is the frame that begins transaction id: op with the Begin, then
	// src for a statement.
	first := func(op byte, id uint64, ro bool, snap uint64, src string) []byte {
		e := wire.NewBuffer(op | begins).U32(1).U64(id).Bool(ro).U64(snap)
		if op != opCommit {
			e.Str(src).U32(0)
		}
		return e.Bytes()
	}
	const sel, ins = "SELECT v FROM kv WHERE k = 1", "INSERT INTO kv (k, v) VALUES (2, 'two')"
	f.Add(stmt(opExec, 0xFFFFFFFF)) // the frame that killed txcache-dbd
	f.Add(stmt(opQuery, 0xFFFFFFFF))
	f.Add(stmt(opQuery, 1, "one"))
	f.Add(stmt(opExec, 2, nil, 1.5))
	for _, ro := range []bool{true, false} {
		f.Add(first(opQuery, 2, ro, 0, sel))
		f.Add(first(opExec, 2, ro, 0, ins))
		f.Add(first(opCommit, 2, ro, 0, ""))
	}
	f.Add(first(opQuery, 2, true, 7, sel))  // unpinned snapshot
	f.Add(first(opExec, 2, false, 1, ins))  // a read/write transaction in the past
	f.Add(first(opQuery, 1, false, 0, sel)) // id 1 is open already
	oneWay := first(opExec, 2, false, 0, ins)
	oneWay[1] = 0 // request ID 0: nobody learns the snapshot
	f.Add(oneWay)
	f.Add(wire.NewBuffer(opAbort | begins).U32(1).U64(2).Bool(false).U64(0).Bytes()) // opAbort cannot begin
	f.Add(wire.NewBuffer(opCommit).U32(1).U64(1).Bytes())
	f.Add(wire.NewBuffer(opAbort).U32(0).U64(1).Bytes())
	f.Add(wire.NewBuffer(opPin).U32(1).Bytes()) // truncated
	f.Add(wire.NewBuffer(opPin).U32(1).U64(0).Bytes())
	f.Add(wire.NewBuffer(opPin).U32(1).U64(1).Bytes()) // the snapshot transaction 1 holds
	f.Add(wire.NewBuffer(opPin).U32(1).U64(7).Bytes()) // nobody holds it
	f.Add(wire.NewBuffer(opUnpin).U32(1).U64(2).Bytes())
	f.Add(wire.NewBuffer(opUnpin).U32(1).Bytes()) // truncated
	f.Add(wire.NewBuffer(rpc.OpStats).U32(1).Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2, 3})
	// The pincushion's frames (opGetPins, opRegister; opPins is a reply):
	// well formed and truncated. 0x23 was its Release; no longer the
	// pincushion's, it must be refused as unknown, even one claiming more
	// timestamps than it carries.
	const getPins, pins, register, release = 0x20, 0x21, 0x22, 0x23
	for _, op := range []byte{getPins, pins, register} {
		if !pincushion.Owns(op) {
			f.Fatalf("opcode %#x is not the pincushion's", op)
		}
	}
	if pincushion.Owns(release) {
		f.Fatalf("retired opcode %#x is still the pincushion's", release)
	}
	f.Add(wire.NewBuffer(getPins).U32(1).I64(int64(time.Minute)).Bytes())
	f.Add(wire.NewBuffer(getPins).U32(1).Bytes())
	f.Add(wire.NewBuffer(register).U32(1).U64(1).I64(1).Bytes()) // the snapshot transaction 1 holds
	f.Add(wire.NewBuffer(register).U32(1).U64(7).I64(1).Bytes()) // nobody holds it
	f.Add(wire.NewBuffer(register).U32(1).U64(1).Bytes())
	f.Add(wire.NewBuffer(release).U32(0).U32(1).U64(1).Bytes())
	f.Add(wire.NewBuffer(release).U32(0).U32(0xFFFFFFFF).U64(1).Bytes())
	f.Add(wire.NewBuffer(release).U32(1).U32(2).U64(1).Bytes())
	f.Add(wire.NewBuffer(pins).U32(1).U32(0).Bytes())
	f.Add(wire.NewBuffer(getPins | begins).U32(1).U64(2).Bool(true).U64(0).Bytes()) // the begin bit makes it no pincushion frame

	f.Fuzz(func(t *testing.T, frame []byte) {
		engine := db.New(db.Options{})
		if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
			t.Fatal(err)
		}
		pc := pincushion.New(pincushion.Config{DB: engine})
		ss := &session{Server: &Server{Engine: engine, Pincushion: pc}, txs: make(map[uint64]*db.Tx)}
		// An open transaction for the frame to address, as id 1.
		tx, err := ss.begin(1, false, 0)
		if err != nil {
			t.Fatal(err)
		}

		reply := rpc.Dispatch(ss.handle, frame)

		oneWay := len(frame) < 5 || frame[1]|frame[2]|frame[3]|frame[4] == 0
		switch {
		case oneWay:
			if reply != nil {
				t.Fatalf("one-way frame %x was answered: %x", frame, reply.Bytes())
			}
		case reply == nil:
			t.Fatalf("request %x got no reply", frame)
		default:
			d := wire.NewDecoder(reply.Bytes())
			got := d.U8()
			d.U32() // the request ID
			if frame[0] == release && got != rpc.OpErr {
				t.Fatalf("retired opcode %#x answered with opcode %d", release, got)
			}
			switch got {
			case rpc.OpErr:
				if d.Str(); d.Err() != nil {
					t.Fatalf("malformed error reply: %x", reply.Bytes())
				}
			case opQueryResp:
				if _, err := decodeResult(d); err != nil {
					t.Fatalf("query reply does not decode: %v", err)
				}
			case rpc.OpStats:
				if err := json.Unmarshal(reply.Bytes()[5:], new(ServerStats)); err != nil {
					t.Fatalf("stats reply does not decode: %v", err)
				}
			case rpc.OpAck, opExecResp, opCommitResp, opPinResp:
			default:
				if pincushion.Owns(frame[0]) && pincushion.Owns(got) {
					break // opPins, which the pincushion's own fuzz target decodes
				}
				t.Fatalf("opcode %d answered with opcode %d", frame[0], got)
			}
			// The reply to a frame that began a transaction ends with its
			// snapshot: here always the latest, the only one pinned.
			switch b := reply.Bytes(); frame[0] {
			case opQuery | begins, opExec | begins, opCommit | begins:
				if snap := wire.NewDecoder(b[len(b)-8:]).U64(); got != rpc.OpErr && snap != uint64(engine.LastCommit()) {
					t.Fatalf("reply %x to a frame that began a transaction ends with snapshot %d, not %d", b, snap, engine.LastCommit())
				}
			}
		}

		if len(frame) > 0 && pincushion.Owns(frame[0]) && (len(ss.txs) != 1 || ss.txs[1] != tx) {
			t.Fatalf("pincushion frame %x touched the session's transactions: %v", frame, ss.txs)
		}

		// Whatever the frame began, committed or aborted, the dropped
		// connection leaves no transaction behind, and a sweep of the
		// pincushion none of what it adopted. (A snapshot the frame pinned
		// with opPin is its caller's to unpin.)
		ss.close()
		pc.SweepAll()
		if n := engine.PinnedCount(); n != 0 && (len(frame) < 5 || frame[0] != opPin) {
			t.Fatalf("%d snapshots still pinned after the connection dropped", n)
		}
	})
}

// TestDecodeResultRejectsBadTags: the frames above are requests, which carry
// no tags; the tag list a client decodes is in the daemon's reply. A reply
// whose list holds the zero ID ("no tag": the cache would file a dependency
// under it) or claims more tags than it has bytes is refused, not believed.
func TestDecodeResultRejectsBadTags(t *testing.T) {
	head := func() *wire.Buffer { return wire.NewBuffer(opQueryResp).U32(0).U32(0).U64(1).U64(2) }
	good := head().U32(1).U64(uint64(invalidation.Intern(invalidation.Tag{Table: "kv", Wildcard: true})))
	for name, c := range map[string]struct {
		reply *wire.Buffer
		ok    bool
	}{
		"well-formed": {good, true},
		"zero ID":     {head().U32(1).U64(0), false},
		"huge count":  {head().U32(1 << 30).U64(1 << 40), false},
	} {
		d := wire.NewDecoder(c.reply.Bytes())
		d.U8()
		if r, err := decodeResult(d); (err == nil) != c.ok {
			t.Errorf("%s: decodeResult = %+v, %v", name, r, err)
		}
	}
}
