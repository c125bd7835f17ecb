// Fixture for the mem-encapsulation pass, analyzed as
// mte4jni/internal/server (a denied package): the SetTagRange call and the
// raw data helpers must be flagged; the checked Load32 must not.
package server

func poke(space spaceLike, v vmLike) {
	space.SetTagRange(0, 16, 3)                // flagged: raw tag storage
	v.JavaHeap.Mapping().WriteRaw(0, nil)      // flagged: unchecked write
	v.JavaHeap.Mapping().ZeroRaw(0, 16)        // flagged: unchecked zeroing
	v.JavaHeap.Mapping().CopyRaw(0, nil, 0, 8) // flagged: unchecked copy
	space.Load32(nil, 0)                       // fine: checked access API
}
