package server

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// aliasSlots is the alias table's slot count, a power of two. A few
// hundred distinct repeated queries mostly keep their slots; a query
// that loses its slot to another only pays the parse again.
const aliasSlots = 1024

// maxAliasQuery is the longest raw query the alias table holds. A
// default curve request of a stored trace is about 110 bytes; a longer
// query takes the parse every time.
const maxAliasQuery = 256

// aliasTable maps the raw query of a curve request that once resolved
// to a valid JSON-format JobSpec to that spec's Key, so that a repeated
// request reaches the result cache without parsing its query, checking
// its sizes or building its key.
//
// An alias is exact for the life of the process: the Store never
// forgets a trace (it has no delete), workload names are fixed, and
// parseJobSpec and simulate.Config.Validate are pure functions of the
// query, so a raw query that resolved once resolves to the same key
// every time. A query that failed is never installed, and one whose
// trace is uploaded later resolves on its next request.
//
// The table is direct-mapped and lock-free: a slot holds one entry, a
// later query hashing to the same slot replaces it, and a reader sees
// either entry whole. Its memory is bounded whatever the request mix:
// aliasSlots entries, each a query of at most maxAliasQuery bytes and
// its key, which is the query's trace hash or workload plus a bounded
// run of names and numbers (under 1 MB in all). A flood of unique
// queries only replaces aliases; it never touches the result cache's
// budget, so it evicts no curve. The hash seed is the table's own, so a
// client cannot aim queries at one slot.
type aliasTable struct {
	seed  maphash.Seed
	slots [aliasSlots]atomic.Pointer[aliasEntry]
}

type aliasEntry struct{ raw, key string }

func newAliasTable() *aliasTable {
	return &aliasTable{seed: maphash.MakeSeed()}
}

func (t *aliasTable) slot(raw string) *atomic.Pointer[aliasEntry] {
	return &t.slots[maphash.String(t.seed, raw)&(aliasSlots-1)]
}

// lookup returns the key raw resolved to, if its alias is installed.
func (t *aliasTable) lookup(raw string) (string, bool) {
	if len(raw) > maxAliasQuery {
		return "", false
	}
	e := t.slot(raw).Load()
	if e == nil || e.raw != raw {
		return "", false
	}
	return e.key, true
}

// install records that raw resolved to key. The query is copied, so
// the entry holds no request's memory.
func (t *aliasTable) install(raw, key string) {
	if len(raw) > maxAliasQuery {
		return
	}
	t.slot(raw).Store(&aliasEntry{raw: strings.Clone(raw), key: key})
}
