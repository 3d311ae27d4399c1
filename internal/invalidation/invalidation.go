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
	"slices"
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

// Bus is an ordered fan-out of the invalidation stream to any number of
// subscribers — the paper's application-level multicast — in publish order.
// It keeps one ring of messages, and a subscription is a cursor into it: a
// slow cache node cannot stall the commit path, nor a dead one grow the heap
// past the ring.
type Bus struct {
	mu         sync.Mutex
	ring       []Message // a power of two long, at most ringLen
	base, head uint64    // the ring holds messages base..head-1
	subs       []*Subscription
	keep       bool
	dropped    uint64 // messages an open subscription was lapped past
}

// NewBus returns an empty bus. Without keepHistory it holds only what some
// open subscription has not read, and a subscription starts at the next
// message. With it the bus keeps the last ringLen messages and a subscription
// starts at the oldest: for tests that subscribe late — a node that joins a
// running system needs no replay (it is cold until its first message, and
// exact afterwards).
func NewBus(keepHistory bool) *Bus { return &Bus{keep: keepHistory} }

// ringLen bounds what the bus holds for a subscriber that is not reading: a
// writer that far ahead laps it, and it resumes at the newest message. What
// it passed over is counted (Bus.Dropped) and needs no further protocol: the
// stream carries one message per commit timestamp, so the reader sees the
// hole as a message that is not its horizon's successor, crosses the gap
// itself (cacheserver.Server.apply) once, and is current. The ring starts at
// minRing slots, doubles as readers fall behind and halves as they catch up.
const ringLen, minRing = 16 << 10, 64

// Subscription receives stream messages in order via C.
type Subscription struct {
	C    <-chan Message
	c    chan Message // unbuffered: the pump holds one message until the reader takes it
	bus  *Bus
	next uint64        // the next message to take from the ring; guarded by bus.mu
	wake chan struct{} // something was published
	done chan struct{} // closed by Close, so a pump whose reader has gone does not wait for it
}

// Subscribe registers a new subscriber, at the ring's oldest message when the
// bus keeps history and at the next message published otherwise.
func (b *Bus) Subscribe() *Subscription {
	c := make(chan Message)
	s := &Subscription{C: c, c: c, bus: b, wake: make(chan struct{}, 1), done: make(chan struct{})}
	b.mu.Lock()
	s.next = b.head
	if b.keep {
		s.next = b.base
	}
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	go s.pump()
	return s
}

// Publish writes ms to the ring once, in order, and wakes every subscriber.
// The caller (the database's commit sequencer) guarantees ms is in timestamp
// order; the bus copies them, so the slice is the caller's again on return.
func (b *Bus) Publish(ms ...Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range ms {
		if n := len(b.ring); b.head-b.base == uint64(n) {
			if n < ringLen {
				b.resize(max(2*n, minRing))
			} else {
				b.forget(b.base + 1)
			}
		}
		*b.slot(b.head) = m
		b.head++
	}
	for _, s := range b.subs {
		if s.next < b.base { // lapped: resume at the newest message
			b.dropped += b.head - 1 - s.next
			s.next = b.head - 1
		}
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	b.release()
}

func (b *Bus) slot(n uint64) *Message { return &b.ring[n&uint64(len(b.ring)-1)] }

// resize moves the ring's messages to a ring of n slots.
func (b *Bus) resize(n int) {
	ring := make([]Message, n)
	for i := b.base; i < b.head; i++ {
		ring[i&uint64(n-1)] = *b.slot(i)
	}
	b.ring = ring
}

// forget lets go of the messages below n.
func (b *Bus) forget(n uint64) {
	for ; b.base < n; b.base++ {
		*b.slot(b.base) = Message{}
	}
}

// release lets go of what every open subscription has read, unless the bus
// keeps history. Caller holds b.mu.
func (b *Bus) release() {
	if b.keep {
		return
	}
	low := b.head
	for _, s := range b.subs {
		low = min(low, s.next)
	}
	b.forget(low)
	if n := len(b.ring); n > minRing && b.head-b.base <= uint64(n/4) {
		b.resize(n / 2)
	}
}

// take returns s's next message and moves its cursor past it; false when s
// has read everything published, or is closed and the ring has let go of it.
func (b *Bus) take(s *Subscription) (m Message, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok = b.base <= s.next && s.next < b.head; ok {
		m = *b.slot(s.next)
		s.next++
		b.release()
	}
	return m, ok
}

// Dropped returns how many messages were published while a subscription was
// open and will never reach it — the ones the writer lapped it past — summed
// over every subscription the bus has had, closed ones included.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// pump hands the ring's messages to the reader in order, from s's cursor.
func (s *Subscription) pump() {
	defer close(s.c)
	for {
		if m, ok := s.bus.take(s); ok {
			select {
			case s.c <- m:
				continue
			case <-s.done:
				return
			}
		}
		select {
		case <-s.wake:
		case <-s.done:
			return
		}
	}
}

// Close stops delivery and takes the subscription off the bus, which holds
// nothing for it from then on. Messages not yet taken may be dropped.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := slices.Index(b.subs, s); i >= 0 {
		b.subs = slices.Delete(b.subs, i, i+1)
		close(s.done)
		b.release()
	}
}
