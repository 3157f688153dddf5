// lint-fixture path=crates/gpu-sim/src/hot_generic.rs rule=hot-loop expect=1

// hot-loop
//
// A tagged streamer with the merged striped kernel's signature shape:
// type and const generics, `[T; N]` array parameters (whose `;` must not
// end the signature) and const-bool mode switches. The vec! in the body
// is the one violation this fixture expects.
#[allow(clippy::needless_range_loop)]
fn tagged_generic<T: Copy + Ord, const N: usize, const LOCAL: bool>(
    rows: &mut [[T; N]],
    floor: [T; N],
) {
    let scratch = vec![floor; 1];
    for s in 0..rows.len() {
        for l in 0..N {
            if LOCAL {
                rows[s][l] = rows[s][l].max(scratch[0][l]);
            }
        }
    }
}

// hot-loop
fn tagged_generic_clean<T: Copy + Ord, const N: usize>(rows: &mut [[T; N]], floor: [T; N]) {
    for s in 0..rows.len() {
        for l in 0..N {
            rows[s][l] = rows[s][l].max(floor[l]);
        }
    }
}
