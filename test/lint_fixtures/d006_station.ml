(* Fixture: D006 — direct station submits bypassing Sysbus.send's link ports. *)
let rush st k = Station.submit st ~service:100L k
let sneak st k = match Station.try_submit st ~service:10L k with
  | true -> ()
  | false -> ()
