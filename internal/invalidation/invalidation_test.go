package invalidation

import (
	"runtime"
	"testing"
	"time"

	"txcache/internal/interval"
	"txcache/internal/wire"
)

func TestTagString(t *testing.T) {
	if got := KeyTag("users", "name", "alice").String(); got != "users:name=alice" {
		t.Errorf("KeyTag = %q", got)
	}
	if got := WildcardTag("users").String(); got != "users:?" {
		t.Errorf("WildcardTag = %q", got)
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	m := Message{
		TS:       42,
		WallTime: time.Unix(100, 250),
		Tags: []TagID{
			Intern(KeyTag("users", "id", "7")),
			Intern(WildcardTag("items")),
			Intern(Tag{}),
		},
	}
	e := wire.NewBuffer(0x10)
	m.AppendTo(e)
	d := wire.NewDecoder(e.Bytes())
	if op := d.Op(); op != 0x10 {
		t.Fatalf("op = %#x", op)
	}
	got, err := DecodeMessage(d)
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
	d.Op()
	if _, err := DecodeMessage(d); err == nil {
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
		d.Op()
		if tags, err := DecodeTags(d); err == nil {
			t.Errorf("%s: decoded %v, want an error", name, tags)
		}
	}
}

// TestBusForgetsClosedSubscription: a subscription that was closed (a cache
// node removed, a push stream that ended) leaves the bus at the next publish
// and keeps nothing — before, every later commit appended to a queue whose
// pump had already returned.
func TestBusForgetsClosedSubscription(t *testing.T) {
	bus := NewBus(false)
	sub, live := bus.Subscribe(), bus.Subscribe()
	bus.Publish(Message{TS: 1})
	sub.Close()
	for i := 2; i <= 10_000; i++ {
		if i%2 == 0 {
			bus.Publish(Message{TS: interval.Timestamp(i)})
		} else {
			bus.PublishBatch([]Message{{TS: interval.Timestamp(i)}})
		}
	}
	if len(bus.subs) != 1 { // every Publish is this goroutine's: no lock needed
		t.Fatalf("%d subscriptions on the bus after one of two closed, want 1", len(bus.subs))
	}
	sub.mu.Lock()
	queued := len(sub.queue)
	sub.mu.Unlock()
	if queued != 0 {
		t.Fatalf("closed subscription holds %d queued messages", queued)
	}
	// The open one still gets everything, in order.
	for i := 1; i <= 10_000; i++ {
		if m := <-live.C; m.TS != interval.Timestamp(i) {
			t.Fatalf("live subscriber got ts %d, want %d", m.TS, i)
		}
	}
	live.Close()
	bus.Publish(Message{TS: 10_001})
	if len(bus.subs) != 0 {
		t.Fatalf("%d subscriptions left after all closed", len(bus.subs))
	}
}

// TestSubscriptionBounded: a subscription nobody reads holds the first
// subscriptionCap messages and counts the rest; a reader that comes back gets
// the retained prefix in order, and then whatever is published next — across
// the hole, which it can see (the stream is dense) and the bus need not say.
func TestSubscriptionBounded(t *testing.T) {
	bus := NewBus(false)
	sub := bus.Subscribe()
	defer sub.Close()
	const over = 100
	for i := 1; i <= subscriptionCap+over; i++ {
		if i%3 == 0 {
			bus.PublishBatch([]Message{{TS: interval.Timestamp(i)}})
		} else {
			bus.Publish(Message{TS: interval.Timestamp(i)})
		}
	}
	sub.mu.Lock()
	queued := len(sub.queue)
	sub.mu.Unlock()
	if queued > subscriptionCap {
		t.Fatalf("an unread subscription holds %d messages, cap %d", queued, subscriptionCap)
	}
	if got := bus.Dropped(); got != over {
		t.Fatalf("Dropped() = %d after %d messages past the cap, want %d", got, over, over)
	}
	// A batch that straddles the cap keeps the part that fits.
	<-sub.C
	<-sub.C
	bus.PublishBatch([]Message{{TS: 20_001}, {TS: 20_002}, {TS: 20_003}})
	if got := bus.Dropped(); got != over+1 && got != over+2 {
		// The pump may not have popped the second message taken yet.
		t.Fatalf("Dropped() = %d after a batch of 3 into room for 1 or 2, want %d or %d", got, over+1, over+2)
	}
	want := interval.Timestamp(3)
	for m := range sub.C {
		if m.TS > subscriptionCap {
			if m.TS != 20_001 {
				t.Fatalf("first message past the hole is ts %d, want 20001", m.TS)
			}
			break
		}
		if m.TS != want {
			t.Fatalf("retained prefix out of order: got ts %d, want %d", m.TS, want)
		}
		want++
	}
	if want != subscriptionCap+1 {
		t.Fatalf("retained prefix ended at ts %d, want %d", want-1, subscriptionCap)
	}
	// The bus keeps the count after the subscription has gone.
	dropped := bus.Dropped()
	sub.Close()
	bus.Publish(Message{TS: 20_004})
	if got := bus.Dropped(); got != dropped || len(bus.subs) != 0 {
		t.Fatalf("Dropped() = %d with %d subscriptions after the last closed, want %d and none", got, len(bus.subs), dropped)
	}
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

func TestBusHistoryReplay(t *testing.T) {
	bus := NewBus(true)
	bus.Publish(Message{TS: 1})
	bus.Publish(Message{TS: 2})
	sub := bus.Subscribe() // late subscriber
	bus.Publish(Message{TS: 3})
	for want := interval.Timestamp(1); want <= 3; want++ {
		select {
		case m := <-sub.C:
			if m.TS != want {
				t.Fatalf("got ts %d, want %d", m.TS, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for ts %d", want)
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
