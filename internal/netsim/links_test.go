package netsim

// SetLinkProps overrides the properties of link li. Reconfiguring
// Bandwidth or Delay affects only packets transmitted afterwards; packets
// already on the wire keep the timing they were launched with.
func (n *Net) SetLinkProps(li int, p LinkProps) {
	n.state(li).props = p
}

// LinkProps returns the properties of link li.
func (n *Net) LinkProps(li int) LinkProps {
	if ls := n.lookup(li); ls != nil {
		return ls.props
	}
	return DefaultLinkProps()
}

// LinkStats summarizes one link's activity.
type LinkStats struct {
	Sent     uint64
	Dropped  uint64
	Bytes    uint64
	BusyTime float64
	Queued   int
}

// Stats returns activity counters for link li.
func (n *Net) Stats(li int) LinkStats {
	ls := n.lookup(li)
	if ls == nil {
		return LinkStats{}
	}
	return LinkStats{Sent: ls.sent, Dropped: ls.dropped, Bytes: ls.bytes, BusyTime: ls.busyTime, Queued: ls.qBytes}
}
