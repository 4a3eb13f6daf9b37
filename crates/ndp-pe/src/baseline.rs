//! The hand-crafted baseline PEs of Vinçon et al. \[1\].
//!
//! The paper compares its generated accelerators against the manually
//! developed PEs of the original nKV work. Functionally those PEs compute
//! the same filter/transform, but the template differs in exactly the ways
//! the paper calls out:
//!
//! * the Load and Store units are **fully static**: they always move
//!   *complete* 32 KiB blocks, so `SRC_LEN` is ignored and every result
//!   block causes a full block of write traffic (higher memory
//!   contention);
//! * only a **single** filtering stage exists (predicate chaining "was
//!   not possible with the architecture in \[1\]");
//! * the **operator set is fixed** to the standard comparators (no custom
//!   operator hook);
//! * no BRAM is used (Table I note), and the hand-specialized tuple
//!   buffers are cheaper in logic — see `ndp-hdl`'s resource model.

use crate::membus::MemBus;
use crate::pipeline::{BlockResult, PeSim};
use crate::regs::Mmio;
use crate::PeDevice;
use ndp_ir::{IrError, IrResult, PeConfig};

/// A hand-crafted nKV baseline PE (functional + timing model).
pub struct BaselinePe {
    inner: PeSim,
}

impl BaselinePe {
    /// Build the baseline equivalent of `cfg`; fails where
    /// [`BaselinePe::check`] does.
    pub fn new(mut cfg: PeConfig) -> IrResult<Self> {
        Self::check(&cfg)?;
        cfg.name = format!("{}_baseline", cfg.name);
        Ok(Self { inner: PeSim::with_flexibility(cfg, false) })
    }

    /// Whether the \[1\] architecture can build `cfg`: a typed error for
    /// multiple stages, an aggregation unit or a custom operator.
    pub fn check(cfg: &PeConfig) -> IrResult<()> {
        if cfg.stages != 1 {
            return Err(IrError::UnsupportedByBaseline {
                parser: cfg.name.clone(),
                reason: format!("a chain of {} filtering stages", cfg.stages),
            });
        }
        if !cfg.aggregates.is_empty() {
            return Err(IrError::UnsupportedByBaseline {
                parser: cfg.name.clone(),
                reason: "an aggregation unit".into(),
            });
        }
        if let Some(custom) = cfg.operators.iter().find(|o| o.op.is_none()) {
            return Err(IrError::UnsupportedByBaseline {
                parser: cfg.name.clone(),
                reason: format!("the custom operator `{}`", custom.name),
            });
        }
        Ok(())
    }

    /// The underlying configuration.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &PeConfig {
        self.inner.config()
    }
}

impl Mmio for BaselinePe {
    fn mmio_read(&mut self, offset: u32) -> u32 {
        self.inner.mmio_read(offset)
    }

    fn mmio_write(&mut self, offset: u32, value: u32) {
        self.inner.mmio_write(offset, value)
    }
}

impl PeDevice for BaselinePe {
    fn execute(&mut self, mem: &mut dyn MemBus) -> BlockResult {
        self.inner.execute(mem)
    }

    fn stages(&self) -> u32 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membus::VecMem;
    use crate::regs::offsets;
    use ndp_ir::{elaborate, elaborate_with_custom_ops};
    use ndp_spec::parse;

    const REFS: &str = "
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    #[test]
    fn baseline_matches_generated_results() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let chunk = cfg.chunk_bytes;
        let mut gen = PeSim::new(cfg.clone());
        let mut base = BaselinePe::new(cfg.clone()).unwrap();

        // One full 32 KiB block of refs.
        let mut mem = VecMem::new(1 << 20);
        let mut bytes = Vec::new();
        let mut i = 0u64;
        while bytes.len() + 20 <= chunk as usize {
            bytes.extend_from_slice(&i.to_le_bytes());
            bytes.extend_from_slice(&(i * 3).to_le_bytes());
            bytes.extend_from_slice(&((i % 97) as u32).to_le_bytes());
            i += 1;
        }
        bytes.resize(chunk as usize, 0);
        mem.write_bytes(0, &bytes);

        let gt = cfg.op_code("gt").unwrap();
        let mut run = |pe: &mut dyn PeDevice, dst: u64| {
            use offsets::*;
            pe.mmio_write(SRC_ADDR_LO, 0);
            pe.mmio_write(SRC_LEN, chunk);
            pe.mmio_write(DST_ADDR_LO, dst as u32);
            pe.mmio_write(DST_ADDR_HI, (dst >> 32) as u32);
            pe.mmio_write(DST_CAPACITY, chunk);
            pe.mmio_write(STAGE_BASE + STAGE_FIELD, 2); // weight lane
            pe.mmio_write(STAGE_BASE + STAGE_OP, gt);
            pe.mmio_write(STAGE_BASE + STAGE_VAL_LO, 50);
            pe.mmio_write(START, 1);
            pe.execute(&mut mem)
        };
        let rg = run(&mut gen, 0x40000);
        let rb = run(&mut base, 0x80000);

        assert_eq!(rg.tuples_in, rb.tuples_in);
        assert_eq!(rg.tuples_out, rb.tuples_out);
        assert_eq!(rg.result_bytes, rb.result_bytes);
        // ... but the baseline causes more write traffic (full block).
        assert_eq!(rb.bytes_written, chunk);
        assert!(rg.bytes_written < rb.bytes_written);
    }

    #[test]
    fn baseline_rejects_multi_stage_configs() {
        let src = "
            /* @autogen define parser R with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v; } T;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "R").unwrap();
        assert!(BaselinePe::new(cfg).is_err());
    }

    #[test]
    fn baseline_rejects_custom_operators() {
        let src = "
            /* @autogen define parser R with input = T, output = T,
               operators = { eq, magic } */
            typedef struct { uint32_t v; } T;
        ";
        let m = parse(src).unwrap();
        let cfg = elaborate_with_custom_ops(&m, "R", &["magic"]).unwrap();
        assert!(BaselinePe::new(cfg).is_err());
    }

    #[test]
    fn baseline_name_is_tagged() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let base = BaselinePe::new(cfg).unwrap();
        assert_eq!(base.config().name, "RefPe_baseline");
    }
}
