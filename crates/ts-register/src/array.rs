//! Fixed-capacity arrays of registers with whole-array collects.

use std::fmt;
use std::marker::PhantomData;

use crate::backend::{BackendRegister, EpochBackend, PackedBackend, RegisterBackend};
use crate::error::CapacityError;
use crate::meter::SpaceMeter;
use crate::packed::Packable;
use crate::pad::CachePadded;
use crate::stamped::{Stamp, Stamped};
use crate::traits::Register;

/// A fixed array `R[0..m)` of stamped atomic registers with optional
/// space metering, generic over the storage [`RegisterBackend`].
///
/// This is the paper's shared register array: `m` multi-writer
/// multi-reader registers, all initialized to the same value (the paper's
/// `⊥`). The array exposes indexed `read`/`write` plus a `collect` (one
/// read of each register in index order), the building block of the
/// double-collect scan.
///
/// Registers are laid out **one per cache line** ([`CachePadded`]),
/// since the paper's algorithms give each register its own writer (see
/// the "Hot paths & memory layout" section of `ARCHITECTURE.md`). A
/// write touches only the written register and the meter, so writers
/// of different registers never share a line.
///
/// The default backend is [`EpochBackend`] (values of any size); arrays
/// of small [`Packable`] values can opt into the word-inlined
/// [`PackedBackend`] via [`RegisterArray::new_packed`] (or the
/// [`PackedRegisterArray`] alias), trading away unbounded contents for
/// allocation-free, pin-free operations.
///
/// # Example
///
/// ```
/// use ts_register::{PackedRegisterArray, RegisterArray};
///
/// let array: RegisterArray<Option<u64>> = RegisterArray::new(3, None);
/// array.write(1, Some(42)).unwrap();
/// assert_eq!(array.read(1).unwrap(), Some(42));
/// let view = array.collect();
/// assert_eq!(view.len(), 3);
///
/// // Same API, word-inlined storage:
/// let packed: PackedRegisterArray<u32> = RegisterArray::new_packed(3, 0);
/// packed.write(2, 7).unwrap();
/// assert_eq!(packed.read(2).unwrap(), 7);
/// ```
pub struct RegisterArray<T, B: RegisterBackend<T> = EpochBackend> {
    registers: Box<[CachePadded<B::Reg>]>,
    meter: Option<SpaceMeter>,
    _value: PhantomData<fn(T) -> T>,
}

/// A [`RegisterArray`] of word-inlined [`PackedBackend`] registers.
pub type PackedRegisterArray<T> = RegisterArray<T, PackedBackend>;

impl<T: Clone + Send + Sync + 'static> RegisterArray<T, EpochBackend> {
    /// Creates an epoch-backed array of `capacity` registers, all
    /// holding `initial`.
    pub fn new(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }

    /// Creates a metered epoch-backed array; all operations report to
    /// `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        Self::with_backend_and_meter(capacity, initial, meter)
    }
}

impl<T: Packable> RegisterArray<T, PackedBackend> {
    /// Creates a packed array of `capacity` registers, all holding
    /// `initial`.
    pub fn new_packed(capacity: usize, initial: T) -> Self {
        Self::with_backend(capacity, initial)
    }
}

impl<T: Clone + Send + Sync, B: RegisterBackend<T>> RegisterArray<T, B> {
    /// Creates an array of `capacity` registers, all holding `initial`,
    /// on the backend `B`.
    pub fn with_backend(capacity: usize, initial: T) -> Self {
        Self {
            registers: (0..capacity)
                .map(|_| CachePadded::new(B::Reg::with_initial(initial.clone())))
                .collect(),
            meter: None,
            _value: PhantomData,
        }
    }

    /// Creates a metered array on the backend `B`; all operations report
    /// to `meter`.
    ///
    /// # Panics
    ///
    /// Panics if `meter.capacity() != capacity`.
    pub fn with_backend_and_meter(capacity: usize, initial: T, meter: SpaceMeter) -> Self {
        assert_eq!(
            meter.capacity(),
            capacity,
            "meter capacity must match array capacity"
        );
        let mut array = Self::with_backend(capacity, initial);
        array.meter = Some(meter);
        array
    }

    /// Number of registers in the array.
    pub fn capacity(&self) -> usize {
        self.registers.len()
    }

    /// Returns the meter attached to this array, if any.
    pub fn meter(&self) -> Option<&SpaceMeter> {
        self.meter.as_ref()
    }

    fn check(&self, index: usize) -> Result<(), CapacityError> {
        if index < self.registers.len() {
            Ok(())
        } else {
            Err(CapacityError {
                index,
                capacity: self.registers.len(),
            })
        }
    }

    /// The registers, for a caller that reads them unmetered and meters
    /// a whole collect with one [`SpaceMeter::record_sweep`].
    pub fn registers(&self) -> &[CachePadded<B::Reg>] {
        &self.registers
    }

    /// Reads register `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read(&self, index: usize) -> Result<T, CapacityError> {
        Ok(self.read_stamped(index)?.value)
    }

    /// Reads register `index` together with its write stamp.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read_stamped(&self, index: usize) -> Result<Stamped<T>, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].read_stamped())
    }

    /// Applies `f` to the value of register `index` in place, without
    /// cloning it out. One register read for metering purposes.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn read_with<R>(&self, index: usize, f: impl FnOnce(&T) -> R) -> Result<R, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].read_with(f))
    }

    /// Reads just the write stamp of register `index` — the cheapest
    /// change probe a backend offers (no value clone on the epoch
    /// backend). One register read for metering purposes.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn stamp(&self, index: usize) -> Result<Stamp, CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_read(index);
        }
        Ok(self.registers[index].stamp())
    }

    /// Writes `value` to register `index`: one store to its register.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if `index` is out of range.
    pub fn write(&self, index: usize, value: T) -> Result<(), CapacityError> {
        self.check(index)?;
        if let Some(meter) = &self.meter {
            meter.record_write(index);
        }
        self.registers[index].write(value);
        Ok(())
    }

    /// Reads every register once, in index order, returning the observed
    /// values with their stamps.
    ///
    /// A single collect is *not* a linearizable view of the whole array:
    /// writes may interleave between the per-register reads. The
    /// `ts-snapshot` scan confirms a collect by re-reading the stamps;
    /// use it when an atomic view is required.
    pub fn collect(&self) -> Vec<Stamped<T>> {
        if let Some(meter) = &self.meter {
            meter.record_sweep();
        }
        (0..self.capacity())
            .map(|i| self.registers[i].read_stamped())
            .collect()
    }
}

impl<T, B> fmt::Debug for RegisterArray<T, B>
where
    T: Clone + Send + Sync + fmt::Debug,
    B: RegisterBackend<T>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("capacity", &self.capacity())
            .field("values", &self.collect())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_array_holds_initial_everywhere() {
        let array: RegisterArray<u32> = RegisterArray::new(4, 7);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn packed_array_holds_initial_everywhere() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 7);
        for i in 0..4 {
            assert_eq!(array.read(i).unwrap(), 7);
        }
    }

    #[test]
    fn out_of_range_read_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        let err = array.read(2).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.capacity, 2);
    }

    #[test]
    fn out_of_range_write_errors() {
        let array: RegisterArray<u32> = RegisterArray::new(2, 0);
        assert!(array.write(5, 1).is_err());
    }

    #[test]
    fn collect_returns_all_values_in_order_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            array.write(0, 10).unwrap();
            array.write(2, 30).unwrap();
            let view = array.collect();
            let values: Vec<u32> = view.into_iter().map(|s| s.value).collect();
            assert_eq!(values, vec![10, 0, 30]);
        }
        run(RegisterArray::<u32>::new(3, 0));
        run(RegisterArray::<u32, PackedBackend>::with_backend(3, 0));
    }

    #[test]
    fn stamps_detect_rewrites_on_both_backends() {
        fn run<B: RegisterBackend<u32>>(array: RegisterArray<u32, B>) {
            let before = array.read_stamped(0).unwrap();
            array.write(0, before.value).unwrap();
            let after = array.read_stamped(0).unwrap();
            assert_eq!(before.value, after.value);
            assert_ne!(before.stamp, after.stamp, "ABA rewrite went undetected");
            assert_eq!(array.stamp(0).unwrap(), after.stamp);
        }
        run(RegisterArray::<u32>::new(1, 5));
        run(RegisterArray::<u32, PackedBackend>::with_backend(1, 5));
    }

    #[test]
    fn padded_registers_sit_on_distinct_cache_lines() {
        let array: PackedRegisterArray<u32> = RegisterArray::new_packed(4, 0);
        for pair in array.registers.windows(2) {
            let a = (&*pair[0]) as *const _ as usize;
            let b = (&*pair[1]) as *const _ as usize;
            assert!(b - a >= 128, "registers {a:#x}/{b:#x} share a line");
        }
    }

    #[test]
    fn metered_array_reports_operations() {
        let meter = SpaceMeter::new(3);
        let array = RegisterArray::with_meter(3, 0u32, meter.clone());
        array.write(1, 5).unwrap();
        let _ = array.collect();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 3);
        assert_eq!(snap.max_written_index(), Some(1));
    }

    #[test]
    fn metered_packed_array_reports_operations() {
        let meter = SpaceMeter::new(2);
        let array: PackedRegisterArray<u8> =
            RegisterArray::with_backend_and_meter(2, 0, meter.clone());
        array.write(0, 1).unwrap();
        let _ = array.read(1).unwrap();
        let snap = meter.snapshot();
        assert_eq!(snap.total_writes(), 1);
        assert_eq!(snap.total_reads(), 1);
    }

    #[test]
    fn read_with_reads_in_place_and_meters_one_read_on_both_backends() {
        fn run<B: RegisterBackend<u32>>() {
            let meter = SpaceMeter::new(3);
            let array: RegisterArray<u32, B> =
                RegisterArray::with_backend_and_meter(3, 0, meter.clone());
            array.write(1, 7).unwrap();
            let read = array.read(1).unwrap();
            let before = meter.snapshot();
            assert_eq!(array.read_with(1, |v| *v), Ok(read));
            let after = meter.snapshot();
            let mut reads = before.reads.clone();
            reads[1] += 1;
            assert_eq!(after.reads, reads, "exactly one read of index 1");
            assert_eq!(after.writes, before.writes);

            let err = array.read_with(3, |v| *v).unwrap_err();
            assert_eq!((err.index, err.capacity), (3, 3));
            assert_eq!(meter.snapshot(), after, "out of range meters nothing");
        }
        run::<EpochBackend>();
        run::<PackedBackend>();
    }

    #[test]
    #[should_panic(expected = "meter capacity must match")]
    fn mismatched_meter_capacity_panics() {
        let meter = SpaceMeter::new(2);
        let _ = RegisterArray::with_meter(3, 0u32, meter);
    }

    #[test]
    fn zero_capacity_array_is_usable() {
        let array: RegisterArray<u8> = RegisterArray::new(0, 0);
        assert_eq!(array.capacity(), 0);
        assert!(array.collect().is_empty());
        assert!(array.read(0).is_err());
    }
}
