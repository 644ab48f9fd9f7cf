(** Cost model: virtual-time constants used across the emulation.

    All times are in virtual nanoseconds. The absolute values are public
    order-of-magnitude numbers (sources in the implementation; see
    DESIGN.md §5); experiments compare *shapes* between the CPU-less and
    centralized designs, which depend on ratios, not absolutes. *)

val bus_hop_ns : int64
(** one hop on the system management bus (PCIe-class round trip /2) *)

val bus_process_ns : int64
(** bus-side message decode + table update (simple hardware) *)

val device_process_ns : int64
(** device-side handler for a control message *)

val iommu_program_ns : int64
(** writing one IOMMU PTE from the bus *)

val iommu_walk_level_ns : int64
(** one page-table level of a hardware walk *)

val tlb_hit_ns : int64
(** TLB lookup *)

val syscall_ns : int64
(** baseline: user->kernel crossing w/ mitigations *)

val kernel_op_ns : int64
(** baseline: kernel control-op service time *)

val interrupt_ns : int64
(** baseline: device interrupt to CPU *)

val flash_read_page_ns : int64
(** NAND page read *)

val flash_write_page_ns : int64
(** NAND page program *)

val flash_erase_block_ns : int64
(** NAND block erase *)

val net_link_ns : int64
(** one network link traversal *)

val net_byte_ns : int64
(** serialisation cost per byte on a link *)

val doorbell_ns : int64
(** MSI-style doorbell write *)

val token_verify_ns : int64
(** capability-token check on the bus *)

val accel_setup_ns : int64
(** accelerator job setup/launch *)

val accel_byte_ns : int64
(** accelerator processing per byte *)

val wimpy_byte_ns : int64
(** per-byte cost of the same computation on a device's embedded (wimpy)
    core — the comparator for offload crossovers *)
