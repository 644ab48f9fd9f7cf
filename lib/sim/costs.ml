type t = {
  bus_hop_ns : int64;
  bus_process_ns : int64;
  device_process_ns : int64;
  iommu_program_ns : int64;
  iommu_walk_level_ns : int64;
  tlb_hit_ns : int64;
  syscall_ns : int64;
  kernel_op_ns : int64;
  interrupt_ns : int64;
  flash_read_page_ns : int64;
  flash_write_page_ns : int64;
  flash_erase_block_ns : int64;
  net_link_ns : int64;
  net_byte_ns : int64;
  doorbell_ns : int64;
  token_verify_ns : int64;
  accel_setup_ns : int64;
  accel_byte_ns : int64;
  wimpy_byte_ns : int64;
}

(* Public order-of-magnitude sources:
   - PCIe round trip ~ 1 us  => 500 ns per hop
   - syscall with spectre/meltdown mitigations ~ 1-2 us
   - NAND read ~ 50 us, program ~ 500 us, erase ~ 3 ms
   - intra-rack link ~ 1 us, ~ 10 GbE => 0.1 ns/byte (we use 1 ns/byte to
     keep serialisation visible at small message sizes). *)
let default =
  {
    bus_hop_ns = 500L;
    bus_process_ns = 200L;
    device_process_ns = 300L;
    iommu_program_ns = 150L;
    iommu_walk_level_ns = 100L;
    tlb_hit_ns = 2L;
    syscall_ns = 1500L;
    kernel_op_ns = 800L;
    interrupt_ns = 2000L;
    flash_read_page_ns = 50_000L;
    flash_write_page_ns = 500_000L;
    flash_erase_block_ns = 3_000_000L;
    net_link_ns = 1000L;
    net_byte_ns = 1L;
    doorbell_ns = 50L;
    token_verify_ns = 80L;
    (* ~4 GB/s streaming accelerator vs a ~250 MB/s embedded core. *)
    accel_setup_ns = 2000L;
    accel_byte_ns = 1L;
    wimpy_byte_ns = 16L;
  }

let zero =
  {
    bus_hop_ns = 0L;
    bus_process_ns = 0L;
    device_process_ns = 0L;
    iommu_program_ns = 0L;
    iommu_walk_level_ns = 0L;
    tlb_hit_ns = 0L;
    syscall_ns = 0L;
    kernel_op_ns = 0L;
    interrupt_ns = 0L;
    flash_read_page_ns = 0L;
    flash_write_page_ns = 0L;
    flash_erase_block_ns = 0L;
    net_link_ns = 0L;
    net_byte_ns = 0L;
    doorbell_ns = 0L;
    token_verify_ns = 0L;
    accel_setup_ns = 0L;
    accel_byte_ns = 0L;
    wimpy_byte_ns = 0L;
  }
