package rsn

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all structural validation failures.
var ErrInvalid = errors.New("rsn: invalid network")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks the structural well-formedness of a network:
//
//   - exactly one scan-in (no predecessors) and one scan-out (no
//     successors);
//   - the graph is acyclic;
//   - degree constraints per kind (segments are 1-in/1-out, fanouts
//     1-in/n-out with n >= 2, muxes n-in/1-out with n >= 2);
//   - multiplexer control sources are segments wide enough to encode the
//     port index, or external.
//
// Together these put every node on some scan-in to scan-out path: the
// degree rules give every node but the scan-in a predecessor and every
// node but the scan-out a successor, and in a finite acyclic graph the
// walks along them must end at the only node without one.
//
// It returns nil if the network is well formed.
func Validate(n *Network) error {
	if n.ScanIn == None || n.ScanOut == None {
		return invalidf("network %q is missing scan-in or scan-out", n.Name)
	}
	if n.NumNodes() < 2 {
		return invalidf("network %q has fewer than two nodes", n.Name)
	}
	scanIns, scanOuts := 0, 0
	for i := range n.nodes {
		nd := &n.nodes[i]
		id := NodeID(i)
		in, out := int(n.pred[i].len), int(n.succ[i].len)
		switch nd.Kind {
		case KindScanIn:
			scanIns++
			if in != 0 {
				return invalidf("scan-in %q has %d predecessors", nd.Name, in)
			}
			if out != 1 {
				return invalidf("scan-in %q must have exactly one successor, has %d", nd.Name, out)
			}
		case KindScanOut:
			scanOuts++
			if out != 0 {
				return invalidf("scan-out %q has %d successors", nd.Name, out)
			}
			if in != 1 {
				return invalidf("scan-out %q must have exactly one predecessor, has %d", nd.Name, in)
			}
		case KindSegment:
			if in != 1 || out != 1 {
				return invalidf("segment %q must be 1-in/1-out, is %d-in/%d-out", nd.Name, in, out)
			}
			if nd.Length <= 0 {
				return invalidf("segment %q has non-positive length %d", nd.Name, nd.Length)
			}
		case KindFanout:
			if in != 1 {
				return invalidf("fanout %q must have exactly one predecessor, has %d", nd.Name, in)
			}
			if out < 2 {
				return invalidf("fanout %q must have at least two successors, has %d", nd.Name, out)
			}
		case KindMux:
			if out != 1 {
				return invalidf("mux %q must have exactly one successor, has %d", nd.Name, out)
			}
			if in < 2 {
				return invalidf("mux %q must have at least two ports, has %d", nd.Name, in)
			}
			if err := validateCtrl(n, id, in); err != nil {
				return err
			}
		default:
			return invalidf("node %q has unknown kind %d", nd.Name, nd.Kind)
		}
	}
	if scanIns != 1 || scanOuts != 1 {
		return invalidf("network %q has %d scan-ins and %d scan-outs, want 1 and 1", n.Name, scanIns, scanOuts)
	}
	if _, err := n.TopoOrder(); err != nil {
		return invalidf("%v", err)
	}
	return nil
}

func validateCtrl(n *Network, mux NodeID, ports int) error {
	nd := n.Node(mux)
	c := nd.Ctrl
	if c.Source == None {
		return nil // external robust controller
	}
	if c.Source < 0 || int(c.Source) >= n.NumNodes() {
		return invalidf("mux %q control source %d out of range", nd.Name, c.Source)
	}
	src := n.Node(c.Source)
	if src.Kind != KindSegment {
		return invalidf("mux %q control source %q is a %s, want segment", nd.Name, src.Name, src.Kind)
	}
	if c.Width <= 0 {
		return invalidf("mux %q control width %d must be positive", nd.Name, c.Width)
	}
	if c.Bit < 0 || c.Bit+c.Width > src.Length {
		return invalidf("mux %q control bits [%d,%d) exceed segment %q length %d",
			nd.Name, c.Bit, c.Bit+c.Width, src.Name, src.Length)
	}
	if need := bitsFor(ports); c.Width < need {
		return invalidf("mux %q has %d ports but only %d control bits (need %d)",
			nd.Name, ports, c.Width, need)
	}
	return nil
}

// bitsFor returns the number of bits needed to encode values 0..n-1.
func bitsFor(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}
