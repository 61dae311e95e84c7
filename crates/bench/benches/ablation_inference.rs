//! Ablation A1: the cost of liquid inference.
//!
//! Compares constraint generation + fixpoint solving against constraint
//! generation alone, quantifying how much of Flux's runtime is spent in the
//! inference phase that replaces hand-written loop invariants.

use flux_bench::harness::{black_box, Criterion};
use flux_check::checker::Generator;
use flux_fixpoint::FixpointSolver;
use flux_ir::ResolvedProgram;
use flux_logic::SortCtx;

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_inference");
    group.sample_size(10);
    for name in ["kmeans", "fft", "bsearch"] {
        let b = flux::benchmark(name).unwrap();
        let program = flux_syntax::parse_program(b.flux_src).unwrap();
        let resolved = ResolvedProgram::resolve(&program).unwrap();
        let fn_names: Vec<String> = resolved.iter().map(|f| f.def.name.clone()).collect();
        group.bench_function(format!("{name}/constraint-gen-only"), |bencher| {
            bencher.iter(|| {
                for f in &fn_names {
                    let gen = Generator::new(&resolved).gen_function(f).unwrap();
                    black_box(gen.constraint.num_heads());
                }
            })
        });
        group.bench_function(format!("{name}/gen-plus-inference"), |bencher| {
            bencher.iter(|| {
                for f in &fn_names {
                    let gen = Generator::new(&resolved).gen_function(f).unwrap();
                    let mut solver = FixpointSolver::with_defaults();
                    black_box(solver.solve(&gen.constraint, &gen.kvars, &SortCtx::new()));
                }
            })
        });
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_inference(&mut c);
}
