package feedback

// Signal is one feedback observation flowing over the bus.
type Signal struct {
	Dim   Dimension
	Key   string // entity within the dimension (node name, session id, …)
	Value float64
	Time  float64
}

// Handler consumes signals for a subscription.
type Handler func(Signal)

type subscription struct {
	dim     Dimension
	key     string // "" subscribes to every key in the dimension
	handler Handler
}

// Key is a stable integer handle to one (dimension, key) routing target,
// resolved once via router.Key and then usable with PublishKey on the
// per-signal path — the stats.Key pattern applied to signal routing.
type Key int32

// dimState is one dimension's routing table. Routes are rebuilt eagerly
// on the cold paths (Subscribe, Key interning) so PublishKey only walks
// precomputed subscription-index lists.
type dimState struct {
	keyIdx   map[string]Key
	keyNames []string
	// routes[k] lists the indices into router.subs matching keyNames[k]
	// (keyed and wildcard subscriptions merged), ascending — which is
	// subscription order, the delivery-order contract.
	routes [][]int32
	// wildcard lists the subscriptions with key "", ascending; every
	// freshly interned key's route starts from it.
	wildcard []int32
}

// router is the publish/subscribe half of a feedback bus: it routes the
// signals of the dimensions its Bus enables to subscribed handlers,
// invoked synchronously in subscription order.
type router struct {
	*Bus
	subs []subscription
	dims [NumDimensions]dimState
	// Published counts accepted signals per dimension; Suppressed counts
	// signals dropped because their dimension was disabled.
	Published  [NumDimensions]uint64
	Suppressed uint64
}

// newRouter returns a router over a bus with every dimension enabled.
func newRouter() *router { return &router{Bus: NewBus()} }

// Subscribe registers a handler for a (dimension, key) pair; an empty key
// receives every signal in the dimension. Routing tables are extended
// here, on the cold path, so publishing stays allocation-free.
func (b *router) Subscribe(d Dimension, key string, h Handler) {
	if d >= NumDimensions {
		panic("feedback: bad dimension")
	}
	si := int32(len(b.subs))
	b.subs = append(b.subs, subscription{dim: d, key: key, handler: h})
	st := &b.dims[d]
	if key == "" {
		// A wildcard matches every key: merge into every existing route.
		// si is the highest index, so appending preserves the ascending
		// (= subscription-order) invariant.
		st.wildcard = append(st.wildcard, si)
		for k := range st.routes {
			st.routes[k] = append(st.routes[k], si)
		}
		return
	}
	k := b.Key(d, key)
	st.routes[k] = append(st.routes[k], si)
}

// Key resolves a (dimension, key) pair to its integer routing handle,
// building the merged delivery route on first use.
func (b *router) Key(d Dimension, name string) Key {
	if d >= NumDimensions {
		panic("feedback: bad dimension")
	}
	st := &b.dims[d]
	if k, ok := st.keyIdx[name]; ok {
		return k
	}
	if st.keyIdx == nil {
		st.keyIdx = make(map[string]Key)
	}
	k := Key(len(st.keyNames))
	st.keyIdx[name] = k
	st.keyNames = append(st.keyNames, name)
	// A fresh key is matched by exactly the wildcard subscriptions so far.
	route := make([]int32, len(st.wildcard))
	copy(route, st.wildcard)
	st.routes = append(st.routes, route)
	return k
}

// PublishKey delivers a signal through a pre-resolved routing handle —
// the allocation-free per-signal fast path. Handlers still receive the
// full Signal, with the key string recovered from the intern table.
func (b *router) PublishKey(d Dimension, k Key, value, now float64) {
	if d >= NumDimensions {
		panic("feedback: bad dimension")
	}
	if !b.enabled[d] {
		b.Suppressed++
		return
	}
	b.Published[d]++
	st := &b.dims[d]
	s := Signal{Dim: d, Key: st.keyNames[k], Value: value, Time: now}
	for _, si := range st.routes[k] {
		b.subs[si].handler(s)
	}
}
