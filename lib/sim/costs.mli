(** Cost model: virtual-time constants used across the emulation.

    All times are in virtual nanoseconds. The absolute values are public
    order-of-magnitude numbers; experiments compare *shapes* between the
    CPU-less and centralized designs, which depend on ratios, not absolutes.
    A record of costs is threaded through the system so ablations can vary
    individual constants. *)

type t = {
  bus_hop_ns : int64;
      (** one hop on the system management bus (PCIe-class round trip /2) *)
  bus_process_ns : int64;
      (** bus-side message decode + table update (simple hardware) *)
  device_process_ns : int64;  (** device-side handler for a control message *)
  iommu_program_ns : int64;  (** writing one IOMMU PTE from the bus *)
  iommu_walk_level_ns : int64;  (** one page-table level of a hardware walk *)
  tlb_hit_ns : int64;  (** TLB lookup *)
  syscall_ns : int64;  (** baseline: user->kernel crossing w/ mitigations *)
  kernel_op_ns : int64;  (** baseline: kernel control-op service time *)
  interrupt_ns : int64;  (** baseline: device interrupt to CPU *)
  flash_read_page_ns : int64;  (** NAND page read *)
  flash_write_page_ns : int64;  (** NAND page program *)
  flash_erase_block_ns : int64;  (** NAND block erase *)
  net_link_ns : int64;  (** one network link traversal *)
  net_byte_ns : int64;  (** serialisation cost per byte on a link *)
  doorbell_ns : int64;  (** MSI-style doorbell write *)
  token_verify_ns : int64;  (** capability-token check on the bus *)
  accel_setup_ns : int64;  (** accelerator job setup/launch *)
  accel_byte_ns : int64;  (** accelerator processing per byte *)
  wimpy_byte_ns : int64;
      (** per-byte cost of the same computation on a device's embedded
          (wimpy) core — the comparator for offload crossovers *)
}

val default : t
(** Defaults documented in the implementation; see DESIGN.md §5. *)

val zero : t
(** All-zero costs: useful in unit tests that assert pure logic. *)
