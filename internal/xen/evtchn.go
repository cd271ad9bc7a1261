package xen

import (
	"fmt"

	"repro/internal/hw"
)

// Port numbers an event channel endpoint within one domain.
type Port int

type chanState uint8

const (
	chanFree chanState = iota
	chanUnbound
	chanInterdomain
)

// channel is one endpoint in a domain's event-channel table. Event
// channels are Xen's virtual interrupt lines: the frontend/backend split
// drivers notify each other through them (§5.2).
type channel struct {
	state      chanState
	allowedDom DomID // who may bind to an unbound port
	remoteDom  DomID
	remotePort Port
	pending    bool
	handler    func(c *hw.CPU)
}

// allocPort finds or grows a free slot in d's table.
func (d *Domain) allocPort() Port {
	for i, ch := range d.ports {
		if ch.state == chanFree {
			return Port(i)
		}
	}
	d.ports = append(d.ports, &channel{})
	return Port(len(d.ports) - 1)
}

// SetPortHandler binds a local callback to a port; the upcall dispatcher
// invokes it when the port is pending. This is guest-local state, not a
// hypercall.
func (d *Domain) SetPortHandler(p Port, h func(c *hw.CPU)) {
	d.ports[p].handler = h
}

// EvtchnAllocUnbound creates a port in d that remote may later bind to.
func (v *VMM) EvtchnAllocUnbound(c *hw.CPU, d *Domain, remote DomID) Port {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	p := d.allocPort()
	d.ports[p].state = chanUnbound
	d.ports[p].allowedDom = remote
	return p
}

// EvtchnBindInterdomain connects a new port in d to remoteDom's
// unbound remotePort, completing the pair.
func (v *VMM) EvtchnBindInterdomain(c *hw.CPU, d *Domain, remoteDom DomID, remotePort Port) (Port, error) {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	rd, ok := v.Domains[remoteDom]
	if !ok {
		return 0, fmt.Errorf("xen: bind to nonexistent dom%d", remoteDom)
	}
	if int(remotePort) >= len(rd.ports) || rd.ports[remotePort].state != chanUnbound {
		return 0, fmt.Errorf("xen: dom%d port %d not unbound", remoteDom, remotePort)
	}
	if rd.ports[remotePort].allowedDom != d.ID {
		return 0, fmt.Errorf("xen: dom%d port %d not offered to dom%d",
			remoteDom, remotePort, d.ID)
	}
	p := d.allocPort()
	d.ports[p].state = chanInterdomain
	d.ports[p].remoteDom = remoteDom
	d.ports[p].remotePort = remotePort
	rd.ports[remotePort].state = chanInterdomain
	rd.ports[remotePort].remoteDom = d.ID
	rd.ports[remotePort].remotePort = p
	return p, nil
}

// EvtchnSend raises the event bound to d's port p. If the remote domain
// is runnable and not already on this physical CPU's dispatch stack, the
// VMM switches to it and delivers the upcall synchronously (the
// uniprocessor Xen behaviour); otherwise the event stays pending until
// the remote next runs or re-enables its virtual IF.
func (v *VMM) EvtchnSend(c *hw.CPU, d *Domain, p Port) error {
	fr := v.enter(c, d)
	defer v.exit(c, d, fr)
	if int(p) >= len(d.ports) || d.ports[p].state != chanInterdomain {
		return fmt.Errorf("xen: dom%d send on invalid port %d", d.ID, p)
	}
	ch := d.ports[p]
	rd := v.Domains[ch.remoteDom]
	if rd == nil {
		return fmt.Errorf("xen: dom%d send to vanished dom%d", d.ID, ch.remoteDom)
	}
	c.Charge(v.M.Costs.EventSend)
	v.noteEventSend(c, d, p)
	rd.ports[ch.remotePort].pending = true
	rd.Stats.EventsIn.Add(1)
	v.maybeDeliverUpcall(c, rd)
	return nil
}

// evtchnMarkPending is the in-batch half of an MCEvtchnSend op: it
// validates the port, charges the send, and marks the remote end
// pending — but defers the upcall to HypMulticall, which delivers it
// for each kicked domain after the MMU lock drops.
func (v *VMM) evtchnMarkPending(c *hw.CPU, d *Domain, p Port, m *Multicall) error {
	if int(p) >= len(d.ports) || d.ports[p].state != chanInterdomain {
		return fmt.Errorf("xen: dom%d send on invalid port %d", d.ID, p)
	}
	ch := d.ports[p]
	rd := v.Domains[ch.remoteDom]
	if rd == nil {
		return fmt.Errorf("xen: dom%d send to vanished dom%d", d.ID, ch.remoteDom)
	}
	c.Charge(v.M.Costs.EventSend)
	v.noteEventSend(c, d, p)
	rd.ports[ch.remotePort].pending = true
	rd.Stats.EventsIn.Add(1)
	for _, k := range m.kicked {
		if k == rd {
			return nil
		}
	}
	m.kicked = append(m.kicked, rd)
	return nil
}

// noteEventSend counts one event sent from d's port p and traces it as
// an "xen/event-send" instant, for the direct and the batched send alike.
func (v *VMM) noteEventSend(c *hw.CPU, d *Domain, p Port) {
	d.Stats.EventsOut.Add(1)
	if h := v.tel(); h != nil {
		h.eventsSent.Inc()
		h.col.Tracer.Instant(c.ID, c.Now(), "xen/event-send", uint64(p))
	}
}

// maybeDeliverUpcall switches to rd and drains its pending ports if it is
// interruptible and not already active on this CPU.
func (v *VMM) maybeDeliverUpcall(c *hw.CPU, rd *Domain) {
	if !rd.VCPU0().VIF() || rd.State != DomRunning {
		return
	}
	if v.onStack(c, rd) {
		return // will drain when control returns to rd
	}
	v.runInDomain(c, rd, func() {
		v.drainPending(c, rd)
	})
}

// drainPending invokes handlers for every pending port of d. Must run
// with d current.
func (v *VMM) drainPending(c *hw.CPU, d *Domain) {
	for {
		progress := false
		for _, ch := range d.ports {
			if ch.pending && ch.handler != nil {
				ch.pending = false
				c.Charge(v.M.Costs.EventDeliver)
				ch.handler(c)
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// SetVIF sets the domain's virtual interrupt flag — the paravirtual
// replacement for cli/sti, costing only a shared-memory write. Enabling
// it drains any events that went pending while masked.
func (v *VMM) SetVIF(c *hw.CPU, d *Domain, on bool) {
	c.Charge(v.M.Costs.MemWrite)
	d.VCPU0().SetVIF(on)
	if on && !v.onStack(c, d) {
		// A real guest gets its upcall on the next VMM entry; close
		// enough to deliver now.
		hasPending := false
		for _, ch := range d.ports {
			if ch.pending && ch.handler != nil {
				hasPending = true
				break
			}
		}
		if hasPending {
			v.runInDomain(c, d, func() { v.drainPending(c, d) })
		}
	} else if on {
		v.drainPending(c, d)
	}
}
