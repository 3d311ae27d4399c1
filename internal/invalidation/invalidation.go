// Package invalidation defines invalidation tags and the ordered
// invalidation stream that carries them from the database to the cache
// nodes (paper §4.2, §5.3).
//
// A tag names a database dependency at one of two granularities: an index
// equality lookup yields a two-part tag like "users:name=alice", while a
// sequential or range scan yields a table wildcard like "users:?". Every
// read/write transaction that commits produces one stream message carrying
// its commit timestamp and the set of tags it affected; cache nodes apply
// messages strictly in timestamp order.
package invalidation

import (
	"sync"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

// Tag is a dependency tag. Wildcard tags cover every key of the table.
type Tag struct {
	Table    string
	Key      string // "column=value" form; empty when Wildcard
	Wildcard bool
}

// KeyTag returns a two-part tag for an index equality lookup.
func KeyTag(table, column string, value string) Tag {
	return Tag{Table: table, Key: column + "=" + value}
}

// WildcardTag returns a table-granularity tag for scans.
func WildcardTag(table string) Tag { return Tag{Table: table, Wildcard: true} }

// String renders the paper's "TABLE:KEY" / "TABLE:?" form.
func (t Tag) String() string {
	if t.Wildcard {
		return t.Table + ":?"
	}
	return t.Table + ":" + t.Key
}

// Message is one entry of the invalidation stream: the timestamp of a
// committed read/write transaction and every tag it affected, as interned
// TagIDs. Messages are produced for every update transaction even if their
// tag set is empty, so that cache nodes' notion of "now" (the last
// invalidation processed) advances with the database.
type Message struct {
	TS       interval.Timestamp
	WallTime time.Time
	Tags     []TagID
}

// TagList materializes the message's tags in struct form (debugging,
// logging); the hot paths stay on the IDs.
func (m Message) TagList() []Tag {
	out := make([]Tag, len(m.Tags))
	for i, id := range m.Tags {
		out[i] = TagOf(id)
	}
	return out
}

// Encode serializes the message for the wire using the given opcode. TagIDs
// are process-local, so the wire carries the string form; the receiving
// process re-interns at decode.
func (m Message) Encode(op byte) []byte {
	e := wire.NewBuffer(op)
	e.U64(uint64(m.TS))
	e.I64(m.WallTime.UnixNano())
	e.U32(uint32(len(m.Tags)))
	for _, id := range m.Tags {
		t := TagOf(id)
		e.Str(t.Table).Str(t.Key).Bool(t.Wildcard)
	}
	return e.Bytes()
}

// DecodeTags reads a count-prefixed list of wire-form (table, key, wildcard)
// tag triples from d, interning each. It is the shared inner loop of every
// protocol that carries tags (invalidation messages, cache puts and lookup
// results, dbnet query results). On a decode error the tags read so far and
// the error are returned.
func DecodeTags(d *wire.Decoder) ([]TagID, error) {
	// A triple is at least two length prefixes and the wildcard byte.
	n := d.Count(4 + 4 + 1)
	if n == 0 {
		return nil, d.Err()
	}
	tags := make([]TagID, 0, n)
	var scratch [64]byte
	buf := scratch[:0]
	for i := 0; i < n; i++ {
		table := d.Str()
		key := d.Str()
		wild := d.Bool()
		if d.Err() != nil {
			return tags, d.Err()
		}
		var id TagID
		id, buf = InternParts(buf, table, key, wild)
		tags = append(tags, id)
	}
	return tags, d.Err()
}

// DecodeMessage parses a message payload positioned after the opcode,
// interning the tags as it goes.
func DecodeMessage(d *wire.Decoder) (Message, error) {
	var m Message
	m.TS = interval.Timestamp(d.U64())
	m.WallTime = time.Unix(0, d.I64())
	var err error
	m.Tags, err = DecodeTags(d)
	return m, err
}

// Bus is an ordered, reliable fan-out of the invalidation stream to any
// number of subscribers — the paper's application-level multicast. Messages
// are delivered to every subscriber in publish order. Delivery is
// asynchronous: each subscriber has an unbounded ordered queue so a slow
// cache node cannot stall the database's commit path.
type Bus struct {
	mu   sync.Mutex
	subs []*Subscription
	log  []Message // retained history for late subscribers during tests
	keep bool
}

// NewBus returns an empty bus. If keepHistory is set, messages are retained
// and replayed to late subscribers (useful for cache nodes joining late).
func NewBus(keepHistory bool) *Bus {
	return &Bus{keep: keepHistory}
}

// Subscription receives stream messages in order via C.
type Subscription struct {
	C      <-chan Message
	c      chan Message
	mu     sync.Mutex
	queue  []Message
	closed bool
	wake   chan struct{}
	done   chan struct{} // closed by Close, so a pump whose reader has gone does not wait for it
}

// Subscribe registers a new subscriber. Replays history first when the bus
// keeps it.
func (b *Bus) Subscribe() *Subscription {
	s := &Subscription{
		c:    make(chan Message, 64),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.C = s.c
	go s.pump()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keep {
		s.enqueue(b.log...)
	}
	b.subs = append(b.subs, s)
	return s
}

// Publish delivers m to all subscribers in order.
func (b *Bus) Publish(m Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keep {
		b.log = append(b.log, m)
	}
	for _, s := range b.subs {
		s.enqueue(m)
	}
}

// PublishBatch delivers ms to all subscribers as one atomic, ordered
// append: one bus lock acquisition for a whole commit group. The caller
// (the database's commit sequencer) guarantees ms is in timestamp order.
func (b *Bus) PublishBatch(ms []Message) {
	if len(ms) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keep {
		b.log = append(b.log, ms...)
	}
	for _, s := range b.subs {
		s.enqueue(ms...)
	}
}

func (s *Subscription) enqueue(ms ...Message) {
	s.mu.Lock()
	s.queue = append(s.queue, ms...)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves messages from the unbounded queue to the delivery channel,
// preserving order.
func (s *Subscription) pump() {
	for range s.wake {
		for {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				close(s.c)
				return
			}
			if len(s.queue) == 0 {
				s.mu.Unlock()
				break
			}
			m := s.queue[0]
			s.queue = s.queue[1:]
			s.mu.Unlock()
			select {
			case s.c <- m:
			case <-s.done:
			}
		}
	}
}

// Close stops delivery. Pending messages may be dropped.
func (s *Subscription) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
