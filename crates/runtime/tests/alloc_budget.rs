//! The slice helpers cost a fixed number of allocations per call, however
//! many chunks the call has — its own test binary, because it installs the
//! counting allocator.

use aergia_runtime::alloc_count::CountingAllocator;
use aergia_runtime::ThreadPool;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocations the calling thread makes in one `par_chunks_mut` call
/// (helpers are boxed by the caller; the chunk closure allocates nothing).
fn allocations_per_call(pool: &ThreadPool, data: &mut [u32], chunk_len: usize) -> u64 {
    let before = ALLOC.thread_allocations();
    pool.par_chunks_mut(data, chunk_len, |index, chunk| {
        for x in chunk {
            *x = index as u32;
        }
    });
    ALLOC.thread_allocations() - before
}

#[test]
fn allocations_per_call_do_not_grow_with_the_chunk_count() {
    let pool = ThreadPool::new(3);
    let mut data = vec![0u32; 1 << 16];
    // Warm-up: the first pushes grow the pool's queues.
    allocations_per_call(&pool, &mut data, 16);
    let few = allocations_per_call(&pool, &mut data, 1 << 13); // 8 chunks
    let many = allocations_per_call(&pool, &mut data, 16); // 4096 chunks
    assert_eq!(many, few, "4096 chunks allocated more than 8 chunks");
    assert!(many < pool.threads() as u64, "more than one allocation per helper: {many}");
}
