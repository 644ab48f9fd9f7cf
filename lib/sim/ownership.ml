(* Dynamic shard-ownership sanitizer: the runtime counterpart of the
   static D007 audit. See ownership.mli for the contract.

   This module is itself the blessed home of two process-global cells
   (the enable switch and the check counter): both are atomics written
   during sequential setup or counted commutatively, neither feeds any
   simulation-observable state, and the whole point of the module is to
   police everyone else's globals. lint.rules exempts this file from
   D007 for exactly that reason. *)

exception Violation of string

(* Enable switch and check counter. Atomics, not plain refs: touches run
   concurrently on every lane during parallel windows, and the OCaml
   memory model makes plain-ref racing reads undefined enough that the
   sanitizer itself would be the race it hunts. *)
let switch = Atomic.make false
let check_count = Atomic.make 0

let enable () =
  Atomic.set check_count 0;
  Atomic.set switch true

let disable () = Atomic.set switch false
let enabled () = Atomic.get switch
let checks () = Atomic.get check_count

(* Lane-local shard context. [-1] means "no window live on this domain";
   avoiding [int option] keeps enter/exit allocation-free. *)
let context : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let enter_shard i =
  if i < 0 then invalid_arg "Ownership.enter_shard: negative shard id";
  Domain.DLS.set context i

let exit_shard () = Domain.DLS.set context (-1)

let current_shard () =
  match Domain.DLS.get context with -1 -> None | s -> Some s

let with_shard i f =
  let prev = Domain.DLS.get context in
  enter_shard i;
  Fun.protect ~finally:(fun () -> Domain.DLS.set context prev) f

type tracker = { t_name : string; mutable t_owner : int }

let tracker ~name ~owner =
  if owner < 0 then invalid_arg "Ownership.tracker: negative owner shard";
  { t_name = name; t_owner = owner }

let name t = t.t_name
let owner t = t.t_owner
let rebind t ~owner = t.t_owner <- owner

let touch t =
  if Atomic.get switch then begin
    match Domain.DLS.get context with
    | -1 -> ()
    | s ->
      Atomic.incr check_count;
      if s <> t.t_owner then
        raise
          (Violation
             (Printf.sprintf
                "ownership violation: cell `%s' is owned by shard %d but was \
                 accessed from the lane running shard %d during a parallel \
                 window — route cross-shard traffic through the quantum-edge \
                 rendezvous (Temporal.post, as a link port does)"
                t.t_name t.t_owner s))
  end
