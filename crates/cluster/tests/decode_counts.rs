//! The catch-up chain's count follows the one count rule of
//! `v6store::format::Dec::counted`: a count the remaining bytes cannot
//! hold is refused before the chain is sized from it. Allocations are
//! counted per thread, so tests running beside this one do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use v6cluster::proto::ReplMsg;
use v6store::replica::DeltaRecord;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call goes to `System` with the arguments the caller
// vouched for; the only addition is a per-thread counter beside it.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_delta_chain_count_past_the_payload_is_refused_before_allocating() {
    let empty = DeltaRecord {
        epoch: 2,
        week: 1,
        content_checksum: 9,
        missing_shards: Vec::new(),
        removed: Vec::new(),
        added: Vec::new(),
        removed_aliases: Vec::new(),
        added_aliases: Vec::new(),
    };
    let msg = ReplMsg::CatchUpResp {
        partition: 3,
        base: None,
        deltas: vec![(1, empty)],
    };
    let mut payload = msg.encode();
    // tag, partition, base flag, chain count: then one minimal link of
    // 52 bytes, which still decodes under the count rule.
    let count_at = 1 + 4 + 1;
    assert_eq!(payload.len(), count_at + 4 + 52);
    assert_eq!(ReplMsg::decode(&payload), Some(msg));

    payload[count_at..count_at + 4].copy_from_slice(&2u32.to_le_bytes());
    let before = ALLOCS.with(Cell::get);
    let decoded = ReplMsg::decode(&payload);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(decoded, None);
    assert_eq!(allocs, 0);
}
