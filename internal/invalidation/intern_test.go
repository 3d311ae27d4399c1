package invalidation

import (
	"fmt"
	"math/rand"
	"testing"
)

// stringMatch is the matching rule on tags as the paper states it: equal
// tags match, a wildcard matches every tag of its table, and a key change
// matches the table's wildcard dependents. It is the reference the ID form
// must never fall short of.
func stringMatch(mt, vt Tag) bool {
	if mt.Wildcard && mt.Table == vt.Table {
		return true
	}
	if vt.Wildcard && vt.Table == mt.Table {
		return true
	}
	return mt == vt
}

// randTag draws from a small universe so equal tags and same-table pairs
// are frequent enough to exercise every branch of the rule.
func randTag(rng *rand.Rand) Tag {
	table := fmt.Sprintf("t%d", rng.Intn(4))
	if rng.Intn(4) == 0 {
		return Tag{Table: table, Wildcard: true}
	}
	col := fmt.Sprintf("c%d", rng.Intn(3))
	return KeyTag(table, col, fmt.Sprint(rng.Intn(6)))
}

// TestGoldenIDs pins the hash. The IDs travel between processes, so a
// change here is a wire-protocol change: make it deliberately, and rebuild
// every daemon.
func TestGoldenIDs(t *testing.T) {
	for _, c := range []struct {
		tag  Tag
		id   TagID
		text string
	}{
		{KeyTag("users", "name", "alice"), 0x20a4b7421d88cdea, "20a4b742:1d88cdea"},
		{KeyTag("items", "id", "42"), 0x7139a8d0b7de47fd, "7139a8d0:b7de47fd"},
		{Tag{Table: "items", Wildcard: true}, 0x7139a8d000000000, "7139a8d0:?"},
	} {
		if got := Intern(c.tag); got != c.id {
			t.Errorf("Intern(%v) = %#016x, pinned %#016x", c.tag, uint64(got), uint64(c.id))
		}
		if got := c.id.String(); got != c.text {
			t.Errorf("TagID(%#016x).String() = %q, want %q", uint64(c.id), got, c.text)
		}
	}
}

// TestNoFalseNegative: whenever the string rule says two tags match, their
// IDs match — the one direction correctness needs. The universe is small
// enough that under the pinned hash no two of its tags share a half, so the
// other direction is checked too: a spurious match here is a broken hash,
// not bad luck.
func TestNoFalseNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100_000; i++ {
		a, b := randTag(rng), randTag(rng)
		ia, ib := Intern(a), Intern(b)
		want, got := stringMatch(a, b), Affects(ia, ib)
		if want && !got {
			t.Fatalf("false negative: %v (%v) must affect %v (%v)", a, ia, b, ib)
		}
		if got != want || (ia == ib) != (a == b) {
			t.Fatalf("collision in a universe of 76 tags: %v (%v), %v (%v)", a, ia, b, ib)
		}
	}
}

// TestKeyHashIsInternOfKeyTag: the executor's path to a key tag's ID (the
// table's wildcard, hashed once, or'ed with a hash of column and formatted
// value) lands on the ID Intern gives the same tag built as strings.
func TestKeyHashIsInternOfKeyTag(t *testing.T) {
	for _, v := range []string{"", "7", "alice", "a=b", "a\x00b"} {
		want := Intern(KeyTag("orders", "buyer", v))
		if got := InternWildcard("orders") | KeyHash("buyer", []byte(v)); got != want {
			t.Errorf("value %q: wild|KeyHash = %v, Intern(KeyTag) = %v", v, got, want)
		}
	}
}

// TestHalves: a key tag's wildcard is its high half, key and wildcard IDs
// are disjoint, no tag — not even the empty one — is the zero ID, and the
// zero ID matches nothing.
func TestHalves(t *testing.T) {
	k := Intern(KeyTag("orders", "id", "1"))
	w := Intern(Tag{Table: "orders", Wildcard: true})
	if WildOf(k) != w || k == w {
		t.Fatalf("WildOf(key %v) = %v, want %v", k, WildOf(k), w)
	}
	if WildOf(w) != w || !IsWildcard(w) || IsWildcard(k) {
		t.Fatal("wildcard identity broken")
	}
	if Intern(Tag{Table: "orders", Key: "ignored", Wildcard: true}) != w {
		t.Fatal("a wildcard's Key must not reach its ID")
	}
	if Intern(Tag{Table: "users2", Wildcard: true}) == w {
		t.Fatal("distinct tables share a wildcard ID")
	}
	if e := Intern(Tag{}); e == 0 || WildOf(e) == 0 || IsWildcard(e) {
		t.Fatalf("Intern(Tag{}) = %v: the empty tag is still a key tag of a table", e)
	}
	if IsWildcard(0) || Affects(0, 0) || Affects(0, w) || Affects(w, 0) {
		t.Fatal("the zero ID is no tag and matches nothing")
	}
	// Key values are arbitrary bytes (string column values).
	if Intern(Tag{Table: "t", Key: "c=a\x00b"}) == Intern(Tag{Table: "t", Key: "c=a"}) {
		t.Fatal("distinct binary keys collided")
	}
}
