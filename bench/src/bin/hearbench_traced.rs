//! The traced binary: identical harness, but every allocation in the
//! process is counted (`layer.allocs_per_call`, `layer.alloc_bytes_per_call`).

#[global_allocator]
static COUNTING: hear_perfbench::alloc::CountingAlloc = hear_perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    hear_perfbench::main()
}
