package asic

import "fmt"

// McastEngine is the traffic manager's packet replication engine. A group
// maps to a list of copies, each naming an egress port and a replication ID
// (rid) the egress pipeline can match on. This is the "general primitive
// widely supported by commodity switches" HTPS builds its replicator on.
type McastEngine struct {
	groups map[int][]CopySpec
}

// CopySpec is one replica of a multicast group.
type CopySpec struct {
	Port int
	Rid  int
}

// NewMcastEngine returns an empty engine.
func NewMcastEngine() *McastEngine {
	return &McastEngine{groups: make(map[int][]CopySpec)}
}

// SetGroup installs or replaces a multicast group. Group IDs are positive;
// zero means "no multicast" in the PHV.
func (m *McastEngine) SetGroup(gid int, copies []CopySpec) error {
	if gid <= 0 {
		return fmt.Errorf("asic: multicast group id must be positive, got %d", gid)
	}
	if len(copies) == 0 {
		return fmt.Errorf("asic: multicast group %d has no copies", gid)
	}
	cs := make([]CopySpec, len(copies))
	copy(cs, copies)
	m.groups[gid] = cs
	return nil
}

// Copies returns the copy list for gid, or nil when the group is not
// configured (the hardware silently drops such packets).
func (m *McastEngine) Copies(gid int) []CopySpec { return m.groups[gid] }
