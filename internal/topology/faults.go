package topology

import "fmt"

// Fault-domain naming. The fault-injection layer (internal/netsim) fails
// and recovers concrete fabric elements; this file gives those elements
// stable, topology-level names so a fault schedule can be built, logged,
// and validated without reaching into the simulator's wiring. An Element
// identifies one failable unit of the 4-post Clos described in §3.1.

// ElementKind classifies a failable fabric element.
type ElementKind uint8

// Failable element kinds. The A and B fields of Element are interpreted
// per kind as documented on each constant.
const (
	// ElemHostLink is host A's access link (host NIC ↔ RSW port).
	ElemHostLink ElementKind = iota
	// ElemRSW is the top-of-rack switch of rack A.
	ElemRSW
	// ElemRSWUplink is the bidirectional uplink pair between rack A's RSW
	// and post B's CSW of its cluster.
	ElemRSWUplink
	// ElemCSW is cluster A's post-B cluster switch.
	ElemCSW
	// ElemFC is datacenter A's post-B Fat Cat aggregation switch.
	ElemFC
)

// String implements fmt.Stringer.
func (k ElementKind) String() string {
	switch k {
	case ElemHostLink:
		return "host-link"
	case ElemRSW:
		return "rsw"
	case ElemRSWUplink:
		return "rsw-uplink"
	case ElemCSW:
		return "csw"
	case ElemFC:
		return "fc"
	default:
		return fmt.Sprintf("ElementKind(%d)", uint8(k))
	}
}

// Element names one failable fabric element. The meaning of A and B
// depends on Kind (see the ElementKind constants).
type Element struct {
	Kind ElementKind
	A, B int
}

// String renders the element in the dotted form the fault log uses.
func (e Element) String() string {
	switch e.Kind {
	case ElemHostLink:
		return fmt.Sprintf("host-link:%d", e.A)
	case ElemRSW:
		return fmt.Sprintf("rsw:%d", e.A)
	case ElemRSWUplink:
		return fmt.Sprintf("rsw-uplink:%d.%d", e.A, e.B)
	case ElemCSW:
		return fmt.Sprintf("csw:%d.%d", e.A, e.B)
	case ElemFC:
		return fmt.Sprintf("fc:%d.%d", e.A, e.B)
	default:
		return fmt.Sprintf("element(%d):%d.%d", uint8(e.Kind), e.A, e.B)
	}
}

// PostsPerCluster is the post count of the 4-post cluster design; post
// indices in Element.B range over [0, PostsPerCluster).
const PostsPerCluster = 4

// ValidElement reports whether e names an element that exists in t.
func (t *Topology) ValidElement(e Element) bool {
	switch e.Kind {
	case ElemHostLink:
		return e.A >= 0 && e.A < t.NumHosts()
	case ElemRSW:
		return e.A >= 0 && e.A < len(t.Racks)
	case ElemRSWUplink:
		return e.A >= 0 && e.A < len(t.Racks) && e.B >= 0 && e.B < PostsPerCluster
	case ElemCSW:
		return e.A >= 0 && e.A < len(t.Clusters) && e.B >= 0 && e.B < PostsPerCluster
	case ElemFC:
		return e.A >= 0 && e.A < len(t.Datacenters) && e.B >= 0 && e.B < PostsPerCluster
	default:
		return false
	}
}
