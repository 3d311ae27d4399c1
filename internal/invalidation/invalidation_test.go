package invalidation

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

func TestTagString(t *testing.T) {
	if got := KeyTag("users", "name", "alice").String(); got != "users:name=alice" {
		t.Errorf("KeyTag = %q", got)
	}
	if got := (Tag{Table: "users", Wildcard: true}).String(); got != "users:?" {
		t.Errorf("wildcard tag = %q", got)
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := Message{
		TS:       42,
		WallTime: time.Unix(100, 250),
		Tags: []TagID{
			Intern(KeyTag("users", "id", "7")),
			Intern(Tag{Table: "items", Wildcard: true}),
			Intern(Tag{}),
		},
	}
	e := wire.NewBuffer(0x10)
	m.AppendTo(e)
	d := wire.NewDecoder(e.Bytes())
	if op := d.U8(); op != 0x10 {
		t.Fatalf("op = %#x", op)
	}
	got, err := DecodeMessage(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.TS != m.TS || !got.WallTime.Equal(m.WallTime) || len(got.Tags) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range m.Tags {
		if got.Tags[i] != m.Tags[i] {
			t.Fatalf("tag %d: got %+v want %+v", i, got.Tags[i], m.Tags[i])
		}
	}
}

func TestMessageDecodeTruncated(t *testing.T) {
	m := Message{TS: 1, Tags: []TagID{Intern(KeyTag("t", "c", "v"))}}
	e := wire.NewBuffer(1)
	m.AppendTo(e)
	b := e.Bytes()
	d := wire.NewDecoder(b[:len(b)-3])
	d.U8()
	if _, err := DecodeMessage(d, nil); err == nil {
		t.Fatal("want error on truncated message")
	}
}

// TestDecodeTagsRejects: a count the frame cannot hold, and an ID no Intern
// produces — the zero ID would register a dependency under "no tag" — are
// decode errors, not tags.
func TestDecodeTagsRejects(t *testing.T) {
	good := Intern(KeyTag("t", "c", "v"))
	for name, body := range map[string]*wire.Buffer{
		"zero ID":        wire.NewBuffer(1).U32(2).U64(uint64(good)).U64(0),
		"no table half":  wire.NewBuffer(1).U32(1).U64(7),
		"count too big":  wire.NewBuffer(1).U32(1 << 30).U64(uint64(good)),
		"short last tag": wire.NewBuffer(1).U32(2).U64(uint64(good)).U32(1),
	} {
		d := wire.NewDecoder(body.Bytes())
		d.U8()
		if tags, err := DecodeTags(d); err == nil {
			t.Errorf("%s: decoded %v, want an error", name, tags)
		}
	}
}

// held is what the bus holds: messages, and the slots of its ring.
func held(b *Bus) (msgs uint64, slots int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.head - b.base, len(b.ring)
}

// reader drains a subscription until it is closed, failing the test if a
// message arrives out of order.
type reader struct {
	last, n, holes atomic.Uint64 // newest timestamp taken; messages taken; breaks in the timestamps
	done           chan struct{}
}

func read(t *testing.T, s *Subscription) *reader {
	r := &reader{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for m := range s.C {
			prev := r.last.Load()
			if uint64(m.TS) <= prev {
				t.Errorf("ts %d after %d", m.TS, prev)
			}
			if uint64(m.TS) != prev+1 {
				r.holes.Add(1)
			}
			r.n.Add(1)
			r.last.Store(uint64(m.TS))
		}
	}()
	return r
}

// readers subscribes n readers to bus; stop closes their subscriptions and
// waits until each reader has drained.
func readers(t *testing.T, bus *Bus, n int) (rs []*reader, stop func()) {
	var subs []*Subscription
	for range n {
		subs = append(subs, bus.Subscribe())
		rs = append(rs, read(t, subs[len(subs)-1]))
	}
	return rs, func() {
		for i, s := range subs {
			s.Close()
			<-rs[i].done
		}
	}
}

// reach waits until r has taken ts.
func (r *reader) reach(ts uint64) {
	for r.last.Load() < ts {
		time.Sleep(10 * time.Microsecond)
	}
}

// publish publishes timestamps from+1..to in batches of 1024, never more
// than half a ring ahead of the readers.
func publish(bus *Bus, from, to int, rs ...*reader) {
	for ts := from + 1; ts <= to; {
		var batch []Message
		for ; ts <= to && len(batch) < 1024; ts++ {
			batch = append(batch, Message{TS: interval.Timestamp(ts)})
		}
		bus.Publish(batch...)
		for _, r := range rs {
			for r.last.Load()+ringLen/2 < uint64(ts-1) {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
}

// waitTaken waits until s's pump has taken n messages from the ring.
func waitTaken(b *Bus, s *Subscription, n uint64) {
	for {
		b.mu.Lock()
		next := s.next
		b.mu.Unlock()
		if next >= n {
			return
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// TestBusForgetsClosedSubscription: a subscription that was closed (a cache
// node removed, a push stream that ended) leaves the bus at once, and the bus
// holds nothing for it — every later message is released as soon as the
// subscriptions still open have read it.
func TestBusForgetsClosedSubscription(t *testing.T) {
	bus := NewBus(false)
	sub, live := bus.Subscribe(), bus.Subscribe()
	bus.Publish(Message{TS: 1})
	sub.Close()
	if len(bus.subs) != 1 {
		t.Fatalf("%d subscriptions on the bus after one of two closed, want 1", len(bus.subs))
	}
	r := read(t, live)
	publish(bus, 1, 10_000, r)
	r.reach(10_000)
	if msgs, _ := held(bus); msgs != 0 || r.holes.Load() != 0 {
		t.Fatalf("bus holds %d messages once the open subscription read them all (%d holes), want 0", msgs, r.holes.Load())
	}
	live.Close()
	<-r.done
	if len(bus.subs) != 0 {
		t.Fatalf("%d subscriptions left after all closed", len(bus.subs))
	}
}

// TestSubscriptionBounded: the bus holds one ring, whatever its subscribers
// do — what they have all read is released, and a subscriber that does not
// read is lapped, not kept up with.
func TestSubscriptionBounded(t *testing.T) {
	const total = 10 * ringLen

	// Readers that keep up get every message in order, and the bus holds
	// nothing once they have read it.
	t.Run("ValidFlow", func(t *testing.T) {
		bus := NewBus(false)
		rs, stop := readers(t, bus, 3)
		publish(bus, 0, total, rs...)
		for _, r := range rs {
			r.reach(total)
			if r.n.Load() != total || r.holes.Load() != 0 {
				t.Fatalf("a reader took %d of %d messages, %d holes", r.n.Load(), total, r.holes.Load())
			}
		}
		if msgs, slots := held(bus); msgs != 0 || bus.Dropped() != 0 || slots > ringLen {
			t.Fatalf("bus holds %d messages in %d slots and dropped %d once every reader has read them", msgs, slots, bus.Dropped())
		}
		stop()
	})

	// Four subscribers, one of which never reads: the bus holds at most one
	// ring throughout, counts exactly what the dead one was lapped past, and
	// holds nothing once the live three have drained and it is closed.
	t.Run("RejectionFlow", func(t *testing.T) {
		bus := NewBus(false)
		dead := bus.Subscribe()
		bus.Publish(Message{TS: 1})
		waitTaken(bus, dead, 1) // its pump holds ts 1 for a reader that never comes
		rs, stop := readers(t, bus, 3)
		for from := 1; from < total; from += ringLen / 2 {
			publish(bus, from, min(from+ringLen/2, total), rs...)
			if msgs, slots := held(bus); msgs > ringLen || slots > ringLen {
				t.Fatalf("after ts %d the bus holds %d messages in %d slots, more than one ring (%d)", from, msgs, slots, ringLen)
			}
		}
		for _, r := range rs {
			r.reach(total)
			if r.holes.Load() != 1 { // they joined at ts 2
				t.Fatalf("a live reader crossed %d holes, want only the one before it joined", r.holes.Load())
			}
		}
		bus.mu.Lock()
		unread := bus.head - dead.next
		bus.mu.Unlock()
		if got := bus.Dropped(); got == 0 || got != total-1-unread {
			t.Fatalf("Dropped() = %d with %d of %d messages unread and one taken, want %d", got, unread, total, total-1-unread)
		}
		if msgs, _ := held(bus); msgs != unread {
			t.Fatalf("bus holds %d messages, the dead subscriber's %d unread", msgs, unread)
		}
		dropped := bus.Dropped()
		dead.Close()
		if msgs, _ := held(bus); msgs != 0 || bus.Dropped() != dropped {
			t.Fatalf("after the dead subscriber closed the bus holds %d messages and counts %d dropped, want 0 and %d", msgs, bus.Dropped(), dropped)
		}
		stop()
	})

	// Readers of every speed, and subscribers that come and go, race an
	// unpaced publisher: each reader's timestamps only rise, the bus never
	// holds more than a ring, a reader that stays ends current, and nothing
	// is held once every subscription is closed.
	t.Run("ConcurrentFlow", func(t *testing.T) {
		bus := NewBus(false)
		rs, stopReaders := readers(t, bus, 3)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		slow := bus.Subscribe()
		wg.Add(2)
		go func() { // a reader that dawdles
			defer wg.Done()
			for range slow.C {
				time.Sleep(time.Microsecond)
			}
		}()
		go func() { // subscribers that come and go, reading a little
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := bus.Subscribe()
				for i := 0; i < 10; i++ {
					select {
					case <-s.C:
					case <-time.After(time.Millisecond):
					}
				}
				s.Close()
			}
		}()
		ts := 1
		for ts <= 4*ringLen {
			batch := make([]Message, 1+ts%64)
			for i := range batch {
				batch[i] = Message{TS: interval.Timestamp(ts)}
				ts++
			}
			bus.Publish(batch...)
			if msgs, slots := held(bus); msgs > ringLen || slots > ringLen {
				t.Fatalf("the bus holds %d messages in %d slots, more than one ring (%d)", msgs, slots, ringLen)
			}
		}
		last := uint64(ts - 1)
		for _, r := range rs {
			r.reach(last)
		}
		close(stop)
		slow.Close()
		stopReaders()
		wg.Wait()
		if msgs, _ := held(bus); msgs != 0 {
			t.Fatalf("the bus holds %d messages with every subscription closed", msgs)
		}
	})
}

func TestBusOrderedDelivery(t *testing.T) {
	bus := NewBus(false)
	sub := bus.Subscribe()
	const n = 1000
	for i := 1; i <= n; i++ {
		bus.Publish(Message{TS: interval.Timestamp(i)})
	}
	for i := 1; i <= n; i++ {
		m := <-sub.C
		if m.TS != interval.Timestamp(i) {
			t.Fatalf("out of order: got ts %d, want %d", m.TS, i)
		}
	}
	sub.Close()
}

func TestBusFanOut(t *testing.T) {
	bus := NewBus(false)
	subs := []*Subscription{bus.Subscribe(), bus.Subscribe(), bus.Subscribe()}
	bus.Publish(Message{TS: 7})
	for i, s := range subs {
		select {
		case m := <-s.C:
			if m.TS != 7 {
				t.Fatalf("sub %d got ts %d", i, m.TS)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("sub %d timed out", i)
		}
	}
}

func TestBusSlowSubscriberDoesNotBlockPublish(t *testing.T) {
	before := runtime.NumGoroutine()
	bus := NewBus(false)
	sub := bus.Subscribe() // never drained
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			bus.Publish(Message{TS: interval.Timestamp(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on slow subscriber")
	}
	// Its pump is by now stuck offering a message nobody will take; Close
	// must end it all the same.
	sub.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after Close: the pump outlived its subscription", before, runtime.NumGoroutine())
		}
	}
}
