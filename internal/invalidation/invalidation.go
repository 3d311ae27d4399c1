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
	"errors"
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
// committed read/write transaction and every tag it affected, as TagIDs.
// Messages are produced for every update transaction even if their tag set
// is empty, so that cache nodes' notion of "now" (the last invalidation
// processed) advances with the database.
type Message struct {
	TS       interval.Timestamp
	WallTime time.Time
	Tags     []TagID
}

// AppendTo writes the message to e: what DecodeMessage reads.
func (m Message) AppendTo(e *wire.Buffer) {
	e.U64(uint64(m.TS))
	e.I64(m.WallTime.UnixNano())
	AppendTags(e, m.Tags)
}

// AppendTags writes tags as a count and eight bytes each: the one encoding
// of a tag list, in every protocol that carries one (invalidation messages,
// cache puts and lookup results, dbnet query results). A TagID means the
// same in every process, so there is nothing to translate.
func AppendTags(e *wire.Buffer, tags []TagID) {
	e.U32(uint32(len(tags)))
	for _, id := range tags {
		e.U64(uint64(id))
	}
}

// DecodeTags reads what AppendTags wrote. An ID without a table half — the
// zero ID above all — is one no Intern produces, and would register a
// dependency under "no tag": it fails the decoder.
func DecodeTags(d *wire.Decoder) ([]TagID, error) {
	n := d.Count(8)
	if n == 0 {
		return nil, d.Err()
	}
	tags := make([]TagID, n)
	for i := range tags {
		tags[i] = TagID(d.U64())
		if WildOf(tags[i]) == 0 {
			d.Fail(errBadTag)
		}
	}
	return tags, d.Err()
}

var errBadTag = errors.New("invalidation: tag ID without a table half")

// DecodeMessage parses a message payload positioned after the opcode.
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
	b.deliver(m)
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
	b.deliver(ms...)
}

// deliver enqueues ms at every open subscription and forgets the closed
// ones: a node that left (core.Client.RemoveNode, a PushStream that ended)
// must not keep a queue that every later commit appends to and nothing
// drains. Caller holds b.mu.
func (b *Bus) deliver(ms ...Message) {
	open := b.subs[:0]
	for _, s := range b.subs {
		if s.enqueue(ms...) {
			open = append(open, s)
		}
	}
	clear(b.subs[len(open):])
	b.subs = open
}

// enqueue reports false, and keeps nothing, once s is closed.
func (s *Subscription) enqueue(ms ...Message) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	s.queue = append(s.queue, ms...)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return true
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
		s.queue = nil
		close(s.done)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}
