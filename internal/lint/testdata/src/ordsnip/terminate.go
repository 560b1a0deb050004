package ordsnip

import "log"

// publishOrDie pins the terminator set: the publish sits on a path
// log.Fatal ends, so it never reaches the summary and the caller's
// write below is clean.
func publishOrDie(b *Box, ok bool) {
	if !ok {
		b.ready.Store(1)
		log.Fatal("bad")
	}
}

func initAfterFatalCheck(b *Box, p []byte) {
	publishOrDie(b, true)
	b.payload = p
}

// publishOrPanic is the same pin with panic ending the path.
func publishOrPanic(b *Box, ok bool) {
	if !ok {
		b.ready.Store(1)
		panic("bad")
	}
}

func initAfterPanicCheck(b *Box, p []byte) {
	publishOrPanic(b, true)
	b.payload = p
}
