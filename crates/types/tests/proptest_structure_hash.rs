//! The structure hash names a datatype by its *description*: built the
//! same way twice it hashes (and commits) the same, it moves with every
//! single parameter of every node kind, and it never pays for what the
//! description expands to.

use std::time::{Duration, Instant};

use cartcomm_types::datatype::StructField;
use cartcomm_types::{Datatype, Primitive};
use proptest::prelude::*;

/// A type's name as a plan-store key uses it: two lanes of the hash, under
/// two seeds.
fn name(ty: &Datatype) -> u128 {
    (u128::from(ty.structure_hash(1)) << 64) | u128::from(ty.structure_hash(2))
}

/// How to build a datatype tree: one variant per node kind, so that a tree
/// can be built twice and have one parameter changed in between.
#[derive(Debug, Clone)]
enum Recipe {
    Primitive(Primitive),
    Contiguous(usize, Box<Recipe>),
    Vector(usize, usize, i64, Box<Recipe>),
    Hvector(usize, usize, i64, Box<Recipe>),
    Indexed(Vec<(usize, i64)>, Box<Recipe>),
    Hindexed(Vec<(usize, i64)>, Box<Recipe>),
    IndexedBlock(usize, Vec<i64>, Box<Recipe>),
    Struct(Vec<(usize, i64, Recipe)>),
    Resized(i64, usize, Box<Recipe>),
    /// Per dimension `(size, subsize, start)` with `start + subsize < size`.
    Subarray(Vec<(usize, usize, usize)>, Box<Recipe>),
}

/// One parameter of a node, whatever its type.
enum Param<'a> {
    Count(&'a mut usize),
    Disp(&'a mut i64),
    Primitive(&'a mut Primitive),
}

impl Param<'_> {
    fn change(self) {
        match self {
            Param::Count(c) => *c += 1,
            Param::Disp(d) => *d += 1,
            Param::Primitive(p) => {
                *p = match *p {
                    Primitive::F64 => Primitive::I32,
                    _ => Primitive::F64,
                }
            }
        }
    }
}

impl Recipe {
    fn build(&self) -> Datatype {
        let unzip =
            |blocks: &[(usize, i64)]| -> (Vec<usize>, Vec<i64>) { blocks.iter().copied().unzip() };
        match self {
            Recipe::Primitive(p) => Datatype::primitive(*p),
            Recipe::Contiguous(count, inner) => Datatype::contiguous(*count, &inner.build()),
            Recipe::Vector(count, blocklen, stride, inner) => {
                Datatype::vector(*count, *blocklen, *stride, &inner.build())
            }
            Recipe::Hvector(count, blocklen, stride, inner) => {
                Datatype::hvector(*count, *blocklen, *stride, &inner.build())
            }
            Recipe::Indexed(blocks, inner) => {
                let (lens, displs) = unzip(blocks);
                Datatype::indexed(&lens, &displs, &inner.build()).unwrap()
            }
            Recipe::Hindexed(blocks, inner) => {
                let (lens, displs) = unzip(blocks);
                Datatype::hindexed(&lens, &displs, &inner.build()).unwrap()
            }
            Recipe::IndexedBlock(blocklen, displs, inner) => {
                Datatype::indexed_block(*blocklen, displs, &inner.build())
            }
            Recipe::Struct(fields) => Datatype::structured(
                fields
                    .iter()
                    .map(|(count, disp, ty)| StructField {
                        count: *count,
                        disp: *disp,
                        ty: ty.build(),
                    })
                    .collect(),
            ),
            Recipe::Resized(lb, extent, inner) => Datatype::resized(*lb, *extent, &inner.build()),
            Recipe::Subarray(dims, inner) => {
                let col =
                    |f: fn(&(usize, usize, usize)) -> usize| dims.iter().map(f).collect::<Vec<_>>();
                let (sizes, subsizes, starts) = (col(|d| d.0), col(|d| d.1), col(|d| d.2));
                Datatype::subarray(&sizes, &subsizes, &starts, &inner.build()).unwrap()
            }
        }
    }

    /// Every parameter of every node of the tree, in one fixed order.
    fn params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect<'a>(&'a mut self, out: &mut Vec<Param<'a>>) {
        let pairs = |blocks: &'a mut Vec<(usize, i64)>, out: &mut Vec<Param<'a>>| {
            for (len, disp) in blocks {
                out.push(Param::Count(len));
                out.push(Param::Disp(disp));
            }
        };
        match self {
            Recipe::Primitive(p) => out.push(Param::Primitive(p)),
            Recipe::Contiguous(count, inner) => {
                out.push(Param::Count(count));
                inner.collect(out);
            }
            Recipe::Vector(count, blocklen, stride, inner)
            | Recipe::Hvector(count, blocklen, stride, inner) => {
                out.push(Param::Count(count));
                out.push(Param::Count(blocklen));
                out.push(Param::Disp(stride));
                inner.collect(out);
            }
            Recipe::Indexed(blocks, inner) | Recipe::Hindexed(blocks, inner) => {
                pairs(blocks, out);
                inner.collect(out);
            }
            Recipe::IndexedBlock(blocklen, displs, inner) => {
                out.push(Param::Count(blocklen));
                out.extend(displs.iter_mut().map(Param::Disp));
                inner.collect(out);
            }
            Recipe::Struct(fields) => {
                for (count, disp, ty) in fields {
                    out.push(Param::Count(count));
                    out.push(Param::Disp(disp));
                    ty.collect(out);
                }
            }
            Recipe::Resized(lb, extent, inner) => {
                out.push(Param::Disp(lb));
                out.push(Param::Count(extent));
                inner.collect(out);
            }
            Recipe::Subarray(dims, inner) => {
                // One more of any of the three still fits: start + subsize
                // was below size.
                for (size, subsize, start) in dims {
                    out.push(Param::Count(size));
                    out.push(Param::Count(subsize));
                    out.push(Param::Count(start));
                }
                inner.collect(out);
            }
        }
    }
}

fn arb_recipe() -> BoxedStrategy<Recipe> {
    let leaf = prop_oneof![
        Just(Primitive::U8),
        Just(Primitive::I32),
        Just(Primitive::F64)
    ]
    .prop_map(Recipe::Primitive);
    let blocks = || proptest::collection::vec((0usize..3, -6i64..7), 1..4);
    leaf.prop_recursive(3, 16, 3, move |inner| {
        let boxed = || inner.clone().prop_map(Box::new);
        prop_oneof![
            (0usize..4, boxed()).prop_map(|(c, t)| Recipe::Contiguous(c, t)),
            (0usize..3, 0usize..3, -3i64..4, boxed())
                .prop_map(|(c, b, s, t)| Recipe::Vector(c, b, s, t)),
            (0usize..3, 0usize..3, -9i64..10, boxed())
                .prop_map(|(c, b, s, t)| Recipe::Hvector(c, b, s, t)),
            (blocks(), boxed()).prop_map(|(b, t)| Recipe::Indexed(b, t)),
            (blocks(), boxed()).prop_map(|(b, t)| Recipe::Hindexed(b, t)),
            (
                0usize..3,
                proptest::collection::vec(-6i64..7, 1..4),
                boxed()
            )
                .prop_map(|(b, d, t)| Recipe::IndexedBlock(b, d, t)),
            proptest::collection::vec((0usize..3, -6i64..7, inner.clone()), 1..3)
                .prop_map(Recipe::Struct),
            (-4i64..5, 0usize..40, boxed()).prop_map(|(lb, e, t)| Recipe::Resized(lb, e, t)),
            (
                proptest::collection::vec((0usize..3, 0usize..3), 1..4),
                boxed()
            )
                .prop_map(|(dims, t)| {
                    let dims = dims
                        .into_iter()
                        .map(|(sub, start)| (sub + start + 1, sub, start));
                    Recipe::Subarray(dims.collect(), t)
                }),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal construction, equal name, equal layout.
    #[test]
    fn built_twice_hashes_and_commits_the_same(recipe in arb_recipe()) {
        let (a, b) = (recipe.build(), recipe.build());
        prop_assert_eq!(name(&a), name(&b));
        let (flat_a, flat_b) = (a.commit().unwrap(), b.commit().unwrap());
        prop_assert_eq!(flat_a.spans(), flat_b.spans());
    }

    /// Any one count, stride, start, displacement or primitive, anywhere
    /// in the tree, is part of the name — whether or not it moves a span.
    #[test]
    fn any_one_parameter_changes_the_hash(recipe in arb_recipe(), which in any::<usize>()) {
        let mut changed = recipe.clone();
        let mut params = changed.params();
        let at = which % params.len();
        params.swap_remove(at).change();
        prop_assert_ne!(
            name(&recipe.build()), name(&changed.build()),
            "{:?} vs {:?}", recipe, changed
        );
    }
}

/// The kinds themselves are part of the name, and each is reachable.
#[test]
fn every_node_kind_hashes_apart_on_equal_parameters() {
    let int = Box::new(Recipe::Primitive(Primitive::I32));
    let kinds = [
        *int.clone(),
        Recipe::Contiguous(2, int.clone()),
        Recipe::Vector(2, 1, 2, int.clone()),
        Recipe::Hvector(2, 1, 2, int.clone()),
        Recipe::Indexed(vec![(2, 1)], int.clone()),
        Recipe::Hindexed(vec![(2, 1)], int.clone()),
        Recipe::IndexedBlock(2, vec![1], int.clone()),
        Recipe::Struct(vec![(2, 1, *int.clone())]),
        Recipe::Resized(2, 1, int.clone()),
        Recipe::Subarray(vec![(4, 2, 1)], int),
    ];
    let mut hashes: Vec<u128> = kinds.iter().map(|r| name(&r.build())).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), 10, "ten node kinds, ten names");
    let ty = kinds[2].build();
    assert_ne!(
        ty.structure_hash(1),
        ty.structure_hash(2),
        "the seed counts"
    );
}

/// Hashing walks the description, never what it expands to: a type of
/// 10⁹ elements — and one of 10⁹ spans, which no machine here could
/// flatten — is named as fast as its element.
#[test]
fn the_hash_never_flattens() {
    let t0 = Instant::now();
    let dense = Datatype::contiguous(1_000_000_000, &Datatype::byte());
    let sparse = Datatype::vector(1_000_000_000, 1, 2, &Datatype::double());
    let nested = Datatype::contiguous(1_000_000, &sparse);
    assert_ne!(name(&dense), name(&sparse));
    assert_ne!(name(&sparse), name(&nested));
    assert_eq!(dense.size(), 1_000_000_000);
    assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
}
