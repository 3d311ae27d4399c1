package cacheserver

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/invalidation"
	"txcache/internal/rpc"
	"txcache/internal/wire"
)

// fuzzSeedFrames returns one well-formed request frame per opcode, so the
// fuzzer starts from inputs that reach every handler arm and mutates from
// there into the interesting malformed neighborhood.
func fuzzSeedFrames() [][]byte {
	tags := []invalidation.TagID{invalidation.Intern(invalidation.KeyTag("users", "id", "7"))}
	lookup := wire.NewBuffer(opLookup)
	lookup.U32(1).Str("k").U64(1).U64(10).U64(0).U64(100)
	// A batched lookup (10) and its reply (11), opcodes the node no longer
	// knows.
	batch := wire.NewBuffer(10)
	batch.U32(2).U32(2)
	batch.Str("a").U64(1).U64(10).U64(0).U64(100)
	batch.Str("b").U64(2).U64(20).U64(0).U64(100)
	batchResp := wire.NewBuffer(11).U32(8).U32(0)
	putHead := func() *wire.Buffer {
		return wire.NewBuffer(opPut).U32(3).Str("k").U64(1).U64(uint64(interval.Infinity)).Bool(true).U64(1)
	}
	put := putHead()
	invalidation.AppendTags(put, tags)
	put.Blob([]byte("value"))
	// The two tag lists DecodeTags must refuse: the zero ID ("no tag"), and a
	// count the frame cannot hold.
	putZeroTag := putHead().U32(1).U64(0).Blob([]byte("value"))
	putHugeCount := putHead().U32(1 << 30).U64(uint64(tags[0])).Blob([]byte("value"))
	stats := wire.NewBuffer(rpc.OpStats).U32(4)
	reset := wire.NewBuffer(opReset).U32(5)
	// Stream messages as a node fresh from New meets them: a gap (0 -> 9),
	// the horizon's successor (0 -> 1), and one at its horizon (a duplicate).
	inval := func(ts interval.Timestamp) []byte {
		e := wire.NewBuffer(opInval).U32(6)
		invalidation.Message{TS: ts, WallTime: time.Unix(1, 0), Tags: tags}.AppendTo(e)
		return e.Bytes()
	}
	// The opcode the database once announced a restart with.
	retired := wire.NewBuffer(12).U32(7).U64(50).I64(1)
	return [][]byte{
		lookup.Bytes(), batch.Bytes(), batchResp.Bytes(), put.Bytes(), stats.Bytes(), reset.Bytes(),
		inval(9), inval(1), inval(0), retired.Bytes(),
		putZeroTag.Bytes(), putHugeCount.Bytes(),
		{}, {opLookup}, {opPut, 1, 0, 0, 0}, {10, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

// retiredOps are opcodes the node once answered: 10 and 11 a batched
// lookup and its reply, 12 the database announcing a restart.
var retiredOps = []byte{10, 11, 12}

// TestRetiredOpcodeRefused: a peer from an older build that still sends a
// retired opcode is told the node does not know it, rather than acked for
// something the node did not do.
func TestRetiredOpcodeRefused(t *testing.T) {
	for _, op := range retiredOps {
		if _, err := New(Config{}).handler()(op, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown opcode %d", op)) {
			t.Fatalf("opcode %d: err = %v, want unknown opcode", op, err)
		}
	}
}

// FuzzHandle drives the server's frame handler — every opcode arm, behind
// the transport's dispatch — with arbitrary payloads. Malformed or truncated
// frames must produce an error frame (or be dropped, for fire-and-forget
// IDs), never a panic, and every response must be addressed to the
// request's ID.
func FuzzHandle(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := New(Config{HistoryLen: 8})
		s.Put("seeded", []byte("v"), interval.Interval{Lo: 2, Hi: 5}, false, 0, nil)
		reply := rpc.Dispatch(s.handler(), frame)
		if reply == nil {
			return
		}
		resp := reply.Bytes()
		d := wire.NewDecoder(resp)
		op := d.Op()
		id := d.U32()
		if d.Err() != nil {
			t.Fatalf("response frame shorter than its own header: %x", resp)
		}
		switch op {
		case rpc.OpStats:
			if err := json.Unmarshal(resp[5:], new(Stats)); err != nil {
				t.Fatalf("stats reply does not decode: %v", err)
			}
		case opLookupResp, rpc.OpAck, rpc.OpErr:
		default:
			t.Fatalf("unknown response opcode %d", op)
		}
		if len(frame) > 0 && slices.Contains(retiredOps, frame[0]) && op != rpc.OpErr {
			t.Fatalf("retired opcode %d answered with opcode %d", frame[0], op)
		}
		if len(frame) >= 5 {
			reqID := uint32(frame[1]) | uint32(frame[2])<<8 | uint32(frame[3])<<16 | uint32(frame[4])<<24
			if id != reqID {
				t.Fatalf("response addressed to %d, request was %d", id, reqID)
			}
		}
		if id == 0 {
			t.Fatal("fire-and-forget request (id 0) must not be answered")
		}
	})
}

// FuzzShardRouting pins the key→shard routing function over arbitrary keys:
// deterministic (two servers with equal shard counts agree), in range, and
// — because routing is FNV-1a with the high half folded into the mask —
// equal to the reference computation spelled out here. A change to the hash
// silently reshuffles every deployment's shard residency; this fuzz target
// makes that a deliberate act instead of an accident.
func FuzzShardRouting(f *testing.F) {
	f.Add("")
	f.Add("k")
	f.Add("user:1234:profile")
	f.Add("wide-63")
	f.Add(string([]byte{0, 255, 0, 255}))
	a := newSharded(Config{}, 8)
	b := newSharded(Config{}, 8)
	big := newSharded(Config{}, 64)
	one := newSharded(Config{}, 1)
	f.Fuzz(func(t *testing.T, key string) {
		got := a.shardIndex(key)
		if got != b.shardIndex(key) || got != a.shardIndex(key) {
			t.Fatalf("routing of %q not deterministic", key)
		}
		if int(got) >= len(a.shards) {
			t.Fatalf("shard %d out of range for %q", got, key)
		}
		// Reference FNV-1a 64 with high-half fold.
		h := uint64(14695981039346656037)
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= 1099511628211
		}
		h ^= h >> 32
		if want := uint32(h & 7); got != want {
			t.Fatalf("route(%q) = %d, reference says %d", key, got, want)
		}
		// Masking consistency across shard counts: the wide router's shard
		// reduces to the narrow router's under the narrower mask.
		if wide := big.shardIndex(key); wide&7 != got {
			t.Fatalf("route64(%q)=%d does not reduce to route8=%d", key, wide, got)
		}
		if one.shardIndex(key) != 0 {
			t.Fatalf("single-shard route of %q nonzero", key)
		}
	})
}
