package dbnet

import (
	"encoding/json"
	"testing"

	"txcache/internal/db"
	"txcache/internal/invalidation"
	"txcache/internal/rpc"
	"txcache/internal/sql"
	"txcache/internal/wire"
)

// FuzzDBNetHandle feeds arbitrary request frames to a session's handler,
// behind the transport's dispatch: it must never panic, must believe no
// count prefix beyond the bytes that actually arrived — an argument count of
// 0xFFFFFFFF used to kill the daemon with an allocation no recover catches —
// must answer a request with exactly one well-formed frame and a one-way
// frame with nothing, and must leave nothing open once the connection drops.
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

	f.Fuzz(func(t *testing.T, frame []byte) {
		engine := db.New(db.Options{})
		if err := engine.DDL(`CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT)`); err != nil {
			t.Fatal(err)
		}
		ss := &session{Server: &Server{Engine: engine}, txs: make(map[uint64]*db.Tx)}
		// An open transaction for the frame to address, as id 1.
		if _, err := ss.begin(1, false, 0); err != nil {
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
			got := d.Op()
			d.U32() // the request ID
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

		// Whatever the frame began, committed or aborted, the dropped
		// connection leaves no transaction behind. (A snapshot the frame
		// pinned with opPin is its caller's to unpin.)
		ss.close()
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
	good := head().U32(1).U64(uint64(invalidation.Intern(invalidation.WildcardTag("kv"))))
	for name, c := range map[string]struct {
		reply *wire.Buffer
		ok    bool
	}{
		"well-formed": {good, true},
		"zero ID":     {head().U32(1).U64(0), false},
		"huge count":  {head().U32(1 << 30).U64(1 << 40), false},
	} {
		d := wire.NewDecoder(c.reply.Bytes())
		d.Op()
		if r, err := decodeResult(d); (err == nil) != c.ok {
			t.Errorf("%s: decodeResult = %+v, %v", name, r, err)
		}
	}
}
