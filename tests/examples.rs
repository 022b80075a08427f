//! The shipped examples, run as tests so they cannot rot: quickstart
//! asserts that DAC leaves the kernel's output bit-identical, and the
//! compiler explorer decouples each of its demo kernels.

#[path = "../examples/quickstart.rs"]
mod quickstart;

// Its `main` reads the process arguments, which here are the harness's;
// the test calls `run` with none instead.
#[allow(dead_code)]
#[path = "../examples/compiler_explorer.rs"]
mod compiler_explorer;

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn compiler_explorer_runs_its_demos() {
    compiler_explorer::run(&[]);
}
