//! Criterion benches for the functional array model: whole-image filtering
//! (window extraction plus plan evaluation), the inner loop of every fitness
//! evaluation in the workspace, and the plane-wise reference filters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ehw_array::array::ProcessingArray;
use ehw_array::genotype::Genotype;
use ehw_image::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_image_filtering(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let array = ProcessingArray::new(Genotype::random(&mut rng));
    let mut group = c.benchmark_group("array/filter_image");
    for size in [64usize, 128, 256] {
        let img = synth::shapes(size, size, 5);
        group.bench_with_input(BenchmarkId::new("sequential", size), &img, |b, img| {
            b.iter(|| black_box(array.filter_image(img)))
        });
    }
    group.finish();
}

fn bench_reference_filters(c: &mut Criterion) {
    let img = synth::paper_scene_128();
    let mut group = c.benchmark_group("reference_filters/128x128");
    group.bench_function("median", |b| {
        b.iter(|| black_box(ehw_image::filters::median(&img)))
    });
    group.bench_function("sobel", |b| {
        b.iter(|| black_box(ehw_image::filters::sobel_edge(&img)))
    });
    group.bench_function("gaussian", |b| {
        b.iter(|| black_box(ehw_image::filters::gaussian_blur(&img)))
    });
    group.finish();
}

criterion_group!(benches, bench_image_filtering, bench_reference_filters);
criterion_main!(benches);
