(* Public order-of-magnitude sources:
   - PCIe round trip ~ 1 us  => 500 ns per hop
   - syscall with spectre/meltdown mitigations ~ 1-2 us
   - NAND read ~ 50 us, program ~ 500 us, erase ~ 3 ms
   - intra-rack link ~ 1 us, ~ 10 GbE => 0.1 ns/byte (we use 1 ns/byte to
     keep serialisation visible at small message sizes). *)
let bus_hop_ns = 500L
let bus_process_ns = 200L
let device_process_ns = 300L
let iommu_program_ns = 150L
let iommu_walk_level_ns = 100L
let tlb_hit_ns = 2L
let syscall_ns = 1500L
let kernel_op_ns = 800L
let interrupt_ns = 2000L
let flash_read_page_ns = 50_000L
let flash_write_page_ns = 500_000L
let flash_erase_block_ns = 3_000_000L
let net_link_ns = 1000L
let net_byte_ns = 1L
let doorbell_ns = 50L
let token_verify_ns = 80L

(* ~4 GB/s streaming accelerator vs a ~250 MB/s embedded core. *)
let accel_setup_ns = 2000L
let accel_byte_ns = 1L
let wimpy_byte_ns = 16L
