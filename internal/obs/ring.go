package obs

import (
	"strconv"

	"repro/internal/machine"
)

// This file holds the recorder's event storage: a drop-oldest ring of
// compact, pointer-free slots, the per-recorder string tables the slots
// index into, and the detail forms that are stored as parts and
// rendered to text only when Events reads the ring back.

// form selects how a slot's detail text is rendered on read-back.
type form uint8

const (
	formText          form = iota // the interned text itself
	formFrom                      // "from <thread>"
	formTo                        // "to <thread>"
	formBlockedWith               // "<thread> blocked with <cont>"
	formParks                     // "<thread> blocked; processor <n> parks"
	formSyscallReturn             // "syscall return <n>"
	formBytes                     // "<n> bytes"
)

// Detail is an event's human-readable qualifier kept in parts: emit
// sites pass the thread, continuation and number the text is made of,
// the ring stores their ids, and the text is built only when an export
// or a test reads the event back. The zero Detail is the empty string.
type Detail struct {
	form form
	// text is the literal text (formText) or the name of the thread the
	// form is built around, whose id is tid.
	text string
	tid  int
	cont string // formBlockedWith
	n    uint64 // formParks, formSyscallReturn, formBytes
}

// Text is a literal detail string.
func Text(s string) Detail { return Detail{text: s} }

// From renders as "from <thread>": the thread a stack was handed off by.
func From(tid int, thread string) Detail { return Detail{form: formFrom, text: thread, tid: tid} }

// To renders as "to <thread>": the thread a context switch resumes.
func To(tid int, thread string) Detail { return Detail{form: formTo, text: thread, tid: tid} }

// BlockedWith renders as "<thread> blocked with <cont>".
func BlockedWith(tid int, thread, cont string) Detail {
	return Detail{form: formBlockedWith, text: thread, tid: tid, cont: cont}
}

// Parks renders as "<thread> blocked; processor <proc> parks".
func Parks(tid int, thread string, proc int) Detail {
	return Detail{form: formParks, text: thread, tid: tid, n: uint64(proc)}
}

// SyscallReturn renders as "syscall return <v>".
func SyscallReturn(v uint64) Detail { return Detail{form: formSyscallReturn, n: v} }

// Bytes renders as "<size> bytes".
func Bytes(size int) Detail { return Detail{form: formBytes, n: uint64(size)} }

// String renders the detail text.
func (d Detail) String() string {
	switch d.form {
	case formFrom:
		return "from " + d.text
	case formTo:
		return "to " + d.text
	case formBlockedWith:
		return d.text + " blocked with " + d.cont
	case formParks:
		return d.text + " blocked; processor " + strconv.FormatInt(int64(d.n), 10) + " parks"
	case formSyscallReturn:
		return "syscall return " + strconv.FormatUint(d.n, 10)
	case formBytes:
		return strconv.FormatInt(int64(d.n), 10) + " bytes"
	}
	return d.text
}

// slot is one retained event: 40 bytes and no pointers, so a full
// 64Ki-event ring is 2.5 MiB the garbage collector never scans. Seq is
// implicit (Dropped plus the slot's position in emit order) and every
// string is an id into the recorder's string table.
type slot struct {
	when machine.Time
	// n is the detail's number (formParks, formSyscallReturn,
	// formBytes) or, for formBlockedWith, the continuation's string id.
	n      uint64
	tid    int32
	arg    int32
	thread uint32 // string id of the thread name
	cont   uint32 // string id of the continuation name
	detail uint32 // string id of the text, or of the thread a form names
	kind   uint8
	form   form
}

// chunkShift sizes the ring's retention chunks: storage grows 1Ki slots
// (40 KiB) at a time as events arrive, up to the ring's capacity, so a
// run that emits little pays for little.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// next returns the slot the next event is stored in, evicting the
// oldest once the ring is full. Only the first fill allocates: after the
// ring wraps, every event overwrites a slot in place.
func (r *Recorder) next() *slot {
	var i int
	if r.n < r.capacity {
		i = r.n
		r.n++
		if i>>chunkShift == len(r.chunks) {
			r.chunks = append(r.chunks, make([]slot, min(chunkLen, r.capacity-i)))
		}
	} else {
		i = r.head
		if r.head++; r.head == r.capacity {
			r.head = 0
		}
		r.Dropped++
	}
	return &r.chunks[i>>chunkShift][i&chunkMask]
}

// intern returns s's id in the string table, adding it on first use.
// Id 0 is the empty string.
func (r *Recorder) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := r.strIDs[s]; ok {
		return id
	}
	id := uint32(len(r.strs))
	r.strs = append(r.strs, s)
	r.strIDs[s] = id
	return id
}

// threadName returns the string id of a thread's name. Names are keyed
// by thread id in a dense slice rather than hashed: a machine can start
// tens of thousands of uniquely named threads, and the usual check is
// one slice load and a string compare that short-circuits on the shared
// pointer. A thread id seen under a second name (tid 0 is shared by
// interrupt context and the "<parked>" processor) falls back to intern.
func (r *Recorder) threadName(tid int, name string) uint32 {
	if name == "" {
		return 0
	}
	if tid < 0 {
		return r.intern(name)
	}
	for tid >= len(r.tidName) {
		r.tidName = append(r.tidName, 0)
	}
	id := r.tidName[tid]
	switch {
	case id != 0 && r.strs[id] == name:
		return id
	case id == 0:
		id = uint32(len(r.strs))
		r.strs = append(r.strs, name)
	default:
		id = r.intern(name)
	}
	r.tidName[tid] = id
	return id
}

// pack fills s with one emitted event.
func (r *Recorder) pack(s *slot, when machine.Time, kind Kind, tid int, thread string, cont uint32, d *Detail, arg int) {
	if int(int32(tid)) != tid || int(int32(arg)) != arg {
		panic("obs: event tid or arg does not fit in 32 bits")
	}
	*s = slot{
		when:   when,
		tid:    int32(tid),
		arg:    int32(arg),
		thread: r.threadName(tid, thread),
		cont:   cont,
		kind:   uint8(kind),
		form:   d.form,
		n:      d.n,
	}
	switch d.form {
	case formText:
		if d.text == r.strs[cont] {
			// Recognition and continuation calls repeat the
			// continuation name as their detail.
			s.detail = cont
		} else {
			s.detail = r.intern(d.text)
		}
	case formBlockedWith:
		s.detail = r.threadName(d.tid, d.text)
		s.n = uint64(r.intern(d.cont))
	case formFrom, formTo, formParks:
		s.detail = r.threadName(d.tid, d.text)
	}
}

// event renders slot s back into an Event with sequence number seq.
func (r *Recorder) event(s *slot, seq uint64) Event {
	d := Detail{form: s.form, text: r.strs[s.detail], n: s.n}
	if s.form == formBlockedWith {
		d.cont = r.strs[s.n]
	}
	return Event{
		Seq:    seq,
		When:   s.when,
		Kind:   Kind(s.kind),
		TID:    int(s.tid),
		Arg:    int(s.arg),
		Thread: r.strs[s.thread],
		Cont:   r.strs[s.cont],
		Detail: d.String(),
	}
}

// Events returns the retained events in emit order, with every detail
// rendered to its text.
func (r *Recorder) Events() []Event {
	out := make([]Event, r.n)
	p := r.head
	for i := range out {
		out[i] = r.event(&r.chunks[p>>chunkShift][p&chunkMask], r.Dropped+uint64(i))
		if p++; p == r.capacity {
			p = 0
		}
	}
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.n }
