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

// Bus is an ordered fan-out of the invalidation stream to any number of
// subscribers — the paper's application-level multicast. Messages are
// delivered to every subscriber in publish order. Delivery is asynchronous:
// each subscriber has its own ordered queue, so a slow cache node cannot
// stall the database's commit path — and a bounded one (subscriptionCap), so
// a dead one cannot grow the database's heap.
type Bus struct {
	mu      sync.Mutex
	subs    []*Subscription
	log     []Message // every message ever published, when keep is set
	keep    bool
	dropped uint64 // messages a subscription's full queue did not keep
}

// NewBus returns an empty bus. With keepHistory set it retains every message
// for the life of the process and replays them to each new subscriber: a
// convenience for tests that subscribe late, not for a deployment — a node
// that joins a running system needs no replay (it is cold until its first
// message, and exact afterwards).
func NewBus(keepHistory bool) *Bus {
	return &Bus{keep: keepHistory}
}

// subscriptionCap bounds the messages a subscription holds for a reader that
// is not taking them — about 35 s of commits at the benchmark's write_heavy
// rate, and about a megabyte. A message that does not fit is dropped and
// counted (Bus.Dropped, db.Stats.StreamDropped). That is safe with no
// further protocol because the stream carries one message per commit
// timestamp: the reader sees the hole as a message
// that is not its horizon's successor and crosses the gap itself
// (cacheserver.Server.apply), paying with freshness what the database no
// longer pays with memory. A reader that stays exactly cap behind pays it
// per message; one that far behind is not serving fresh data either way.
const subscriptionCap = 16 << 10

// Subscription receives stream messages in order via C.
type Subscription struct {
	C      <-chan Message
	c      chan Message // unbuffered: a message leaves queue when the reader has it
	mu     sync.Mutex
	queue  []Message // at most subscriptionCap
	closed bool
	wake   chan struct{}
	done   chan struct{} // closed by Close, so a pump whose reader has gone does not wait for it
}

// Subscribe registers a new subscriber. Replays history first when the bus
// keeps it.
func (b *Bus) Subscribe() *Subscription {
	s := &Subscription{
		c:    make(chan Message),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	s.C = s.c
	go s.pump()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keep {
		dropped, _ := s.enqueue(b.log...)
		b.dropped += dropped
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
// ones: a node that left (its stream's owner closed it, a PushStream ended)
// must not keep a queue that every later commit appends to and nothing
// drains. Caller holds b.mu.
func (b *Bus) deliver(ms ...Message) {
	open := b.subs[:0]
	for _, s := range b.subs {
		dropped, ok := s.enqueue(ms...)
		b.dropped += dropped
		if ok {
			open = append(open, s)
		}
	}
	clear(b.subs[len(open):])
	b.subs = open
}

// enqueue reports false, and keeps nothing, once s is closed. While it is
// open it keeps what fits under subscriptionCap, in order, and returns how
// many of the rest it dropped.
func (s *Subscription) enqueue(ms ...Message) (dropped uint64, open bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, false
	}
	if room := subscriptionCap - len(s.queue); len(ms) > room {
		dropped = uint64(len(ms) - room)
		ms = ms[:room]
	}
	s.queue = append(s.queue, ms...)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return dropped, true
}

// Dropped returns how many messages found a subscription's queue full and
// were not kept, summed over every subscription the bus has had, closed ones
// included.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// pump hands the queue's messages to the reader in order. A message stays
// in the queue, and counts against its cap, until the reader has taken it.
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
			s.mu.Unlock()
			select {
			case s.c <- m:
				s.mu.Lock()
				if !s.closed { // Close has let the queue go
					s.queue = s.queue[1:]
				}
				s.mu.Unlock()
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
