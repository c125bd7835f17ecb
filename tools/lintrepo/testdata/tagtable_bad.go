// Fixture for the tagtable-encapsulation pass. Linted twice: under
// internal/mem (as if this were a sibling of tagtable.go) both the
// .tagPages selector and the uniformPages reference are flagged; under any
// other import path only the indexed .tagPages access is, as defense in
// depth. The good shape — resolving pages through the accessors and
// comparing against canonical() — is never flagged. Parsed, never
// compiled, so the accessors and canonical helper (which live in
// tagtable.go) need no definitions here.
package fixture

type fixtureTagPage [1024]uint8

// The field declaration itself is fine — only expressions that read or
// index the directory are storage access.
type fixtureMapping struct {
	tagPages []*fixtureTagPage
}

// goodRead is the sanctioned shape: check Tagged, resolve the page through
// the accessor and compare against a canonical pointer.
func goodRead(m *fixtureMapping, gi int) uint8 {
	if !m.Tagged() {
		return 0
	}
	pg := m.tpage(gi >> 10)
	if pg == canonical(0) {
		return 0
	}
	return pg[gi&1023]
}

// badRead indexes the directory directly: flagged under internal/mem
// (selector .tagPages) and elsewhere (indexed .tagPages).
func badRead(m *fixtureMapping, gi int) uint8 {
	return m.tagPages[gi>>10][gi&1023]
}

// badUniform writes through the canonical array: flagged under
// internal/mem only (the ident is unexported and unreachable elsewhere).
func badUniform() {
	uniformPages[3][0] = 7
}
