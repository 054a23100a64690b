//! Block identification (§4.1): find the "smallest repeated layer
//! patterns" in a large model's layer sequence.
//!
//! The paper's modularization starts from an architecture description:
//! a VGG model contains repeated `[Conv, BN, ReLU, Pool, Dropout]` runs,
//! a ResNet contains repeated residual units. This module takes a flat
//! layer sequence, finds the smallest pattern that repeats contiguously
//! and covers the maximal stretch of the network, and cuts the model into
//! blocks — the units the modularizer then replaces with module layers.
//!
//! The scan is exact (O(n²·k) over sequence length n and pattern length
//! k) — architectures are dozens of layers, so there is nothing to
//! optimise.

use serde::{Deserialize, Serialize};

/// A layer kind in an architecture description. `Custom` carries a label
/// so exotic layers can still participate in pattern matching.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerDesc {
    Conv,
    BatchNorm,
    ReLU,
    Pool,
    Dropout,
    Linear,
    Residual,
    Custom(String),
}

/// One identified block: a contiguous run of layers.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Index of the block's first layer in the original sequence.
    pub start: usize,
    /// The layers the block covers.
    pub layers: Vec<LayerDesc>,
    /// True when this block is one instance of the repeated pattern (vs a
    /// non-repeating prefix/suffix such as a stem or classifier head).
    pub repeated: bool,
}

/// Result of block identification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPlan {
    /// The repeating pattern itself (empty if none was found).
    pub pattern: Vec<LayerDesc>,
    /// All blocks in network order: optional stem, the repeated blocks,
    /// optional head.
    pub blocks: Vec<Block>,
}

/// Finds the smallest repeated layer pattern covering the longest stretch
/// of `arch`, and cuts the architecture into stem / repeated blocks /
/// head.
///
/// Selection rule: among all (pattern length k ≥ 1, start offset s)
/// whose pattern repeats ≥ 2 times contiguously, pick the candidate
/// covering the most layers; ties break toward the *smallest* k (the
/// paper's "smallest repeated pattern"), then the earliest start.
pub fn identify_blocks(arch: &[LayerDesc]) -> BlockPlan {
    let n = arch.len();
    let mut best: Option<(usize, usize, usize)> = None; // (k, start, reps)

    for k in 1..=n / 2 {
        for start in 0..n.saturating_sub(2 * k - 1) {
            let pattern = &arch[start..start + k];
            let mut reps = 1;
            while start + (reps + 1) * k <= n && &arch[start + reps * k..start + (reps + 1) * k] == pattern {
                reps += 1;
            }
            if reps >= 2 {
                let covered = reps * k;
                let better = match best {
                    None => true,
                    Some((bk, bs, breps)) => {
                        let bcov = breps * bk;
                        covered > bcov
                            || (covered == bcov && k < bk)
                            || (covered == bcov && k == bk && start < bs)
                    }
                };
                if better {
                    best = Some((k, start, reps));
                }
            }
        }
    }

    let Some((k, start, reps)) = best else {
        // No repetition: the whole network is a single non-repeated block.
        return BlockPlan {
            pattern: Vec::new(),
            blocks: if n == 0 {
                Vec::new()
            } else {
                vec![Block { start: 0, layers: arch.to_vec(), repeated: false }]
            },
        };
    };

    let mut blocks = Vec::new();
    if start > 0 {
        blocks.push(Block { start: 0, layers: arch[..start].to_vec(), repeated: false });
    }
    for r in 0..reps {
        let s = start + r * k;
        blocks.push(Block { start: s, layers: arch[s..s + k].to_vec(), repeated: true });
    }
    let end = start + reps * k;
    if end < n {
        blocks.push(Block { start: end, layers: arch[end..].to_vec(), repeated: false });
    }

    BlockPlan { pattern: arch[start..start + k].to_vec(), blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LayerDesc::*;

    /// The VGG16 architecture as a layer sequence (conv blocks + classifier),
    /// simplified to the per-block pattern the paper quotes.
    fn vgg16_arch() -> Vec<LayerDesc> {
        let mut arch = Vec::new();
        for _ in 0..5 {
            arch.extend([Conv, BatchNorm, ReLU, Pool, Dropout]);
        }
        arch.extend([Linear, ReLU, Linear]);
        arch
    }

    /// A ResNet-18-style architecture: a conv stem then repeated residual
    /// units, then the classifier.
    fn resnet18_arch() -> Vec<LayerDesc> {
        let mut arch = vec![Conv, BatchNorm, ReLU, Pool];
        for _ in 0..8 {
            arch.extend([Conv, BatchNorm, ReLU, Conv, BatchNorm, Residual]);
        }
        arch.extend([Pool, Linear]);
        arch
    }

    /// How many of the plan's blocks are repetitions of the pattern — the
    /// units a modularizer would be handed.
    fn repeated(plan: &BlockPlan) -> usize {
        plan.blocks.iter().filter(|b| b.repeated).count()
    }

    #[test]
    fn finds_the_vgg_block_pattern() {
        let plan = identify_blocks(&vgg16_arch());
        assert_eq!(plan.pattern, vec![Conv, BatchNorm, ReLU, Pool, Dropout]);
        assert_eq!(repeated(&plan), 5);
        // Head (classifier) is a non-repeated trailing block.
        let last = plan.blocks.last().unwrap();
        assert!(!last.repeated);
        assert_eq!(last.layers, vec![Linear, ReLU, Linear]);
    }

    #[test]
    fn finds_the_resnet_residual_unit() {
        let plan = identify_blocks(&resnet18_arch());
        assert_eq!(plan.pattern, vec![Conv, BatchNorm, ReLU, Conv, BatchNorm, Residual]);
        assert_eq!(repeated(&plan), 8);
        // Stem precedes, head follows.
        assert!(!plan.blocks.first().unwrap().repeated);
        assert!(!plan.blocks.last().unwrap().repeated);
    }

    #[test]
    fn blocks_tile_the_whole_network() {
        for arch in [vgg16_arch(), resnet18_arch()] {
            let plan = identify_blocks(&arch);
            let mut cursor = 0;
            for b in &plan.blocks {
                assert_eq!(b.start, cursor, "gap or overlap at layer {cursor}");
                cursor += b.layers.len();
            }
            assert_eq!(cursor, arch.len(), "blocks do not cover the network");
        }
    }

    #[test]
    fn no_repetition_yields_single_block() {
        let arch = vec![Conv, Linear, Pool];
        let plan = identify_blocks(&arch);
        assert!(plan.pattern.is_empty());
        assert_eq!(plan.blocks.len(), 1);
        assert!(!plan.blocks[0].repeated);
    }

    #[test]
    fn smallest_pattern_wins_ties() {
        // [A A A A] can be read as 4×[A] or 2×[A A]; both cover 4 layers,
        // so the smaller pattern must win.
        let arch = vec![Conv, Conv, Conv, Conv];
        let plan = identify_blocks(&arch);
        assert_eq!(plan.pattern, vec![Conv]);
        assert_eq!(repeated(&plan), 4);
    }

    #[test]
    fn coverage_beats_pattern_size() {
        // 2×[Conv ReLU] (covers 4) vs 3×[Pool] (covers 3): coverage wins.
        let arch = vec![Conv, ReLU, Conv, ReLU, Pool, Pool, Pool];
        let plan = identify_blocks(&arch);
        assert_eq!(plan.pattern, vec![Conv, ReLU]);
    }

    #[test]
    fn custom_layers_participate_in_matching() {
        let attn = || Custom("attention".to_string());
        let arch = vec![Linear, attn(), Linear, attn(), Linear, attn()];
        let plan = identify_blocks(&arch);
        assert_eq!(plan.pattern.len(), 2);
        assert_eq!(repeated(&plan), 3);
    }

    #[test]
    fn empty_architecture_is_handled() {
        let plan = identify_blocks(&[]);
        assert!(plan.blocks.is_empty());
        assert!(plan.pattern.is_empty());
    }
}
