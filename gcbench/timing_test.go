package main

import (
	"reflect"
	"testing"

	"groupcast/internal/transport"
)

// probedInterfaces are the optional interfaces the node layer type-asserts
// on its transport.
var probedInterfaces = map[string]reflect.Type{
	"MultiSender":        reflect.TypeOf((*transport.MultiSender)(nil)).Elem(),
	"QueueReporter":      reflect.TypeOf((*transport.QueueReporter)(nil)).Elem(),
	"DropCounter":        reflect.TypeOf((*transport.DropCounter)(nil)).Elem(),
	"BreakerReporter":    reflect.TypeOf((*transport.BreakerReporter)(nil)).Elem(),
	"OutboundQueueDepth": reflect.TypeOf((*interface{ OutboundQueueDepth() int })(nil)).Elem(),
	"InboxQueue":         reflect.TypeOf((*interface{ InboxQueue() *transport.PrioInbox })(nil)).Elem(),
	"CoalesceStats": reflect.TypeOf((*interface {
		CoalesceStats() transport.CoalesceStats
	})(nil)).Elem(),
}

func checkSameInterfaces(t *testing.T, inner transport.Transport) {
	t.Helper()
	rec := &recording{}
	wrapped, err := wrapTransport(inner, rec)
	if err != nil {
		t.Fatal(err)
	}
	for name, iface := range probedInterfaces {
		in, out := reflect.TypeOf(inner).Implements(iface), reflect.TypeOf(wrapped).Implements(iface)
		if in != out {
			t.Errorf("%T: inner implements %s = %v, decorator = %v", inner, name, in, out)
		}
	}
	if wrapped.Recv() != inner.Recv() {
		t.Errorf("%T: decorator does not return the inner Recv channel", inner)
	}
	if wrapped.Addr() != inner.Addr() {
		t.Errorf("%T: address %q, want %q", inner, wrapped.Addr(), inner.Addr())
	}
}

func TestDecoratorKeepsInterfaceSet(t *testing.T) {
	mem := transport.NewMemNetwork().NextEndpoint()
	defer mem.Close()
	checkSameInterfaces(t, mem)

	tcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	checkSameInterfaces(t, tcp)
}

func TestDecoratorRejectsUnknownTransport(t *testing.T) {
	var tr transport.Transport = struct{ transport.Transport }{}
	if _, err := wrapTransport(tr, &recording{}); err == nil {
		t.Fatal("unknown transport wrapped")
	}
}
