(* lastcpu-lint: determinism-hazard lint over the repo's own sources.

   Built on compiler-libs' Parsetree so matching is syntactic and exact —
   an identifier fires a rule only when its qualified path matches (e.g.
   [Hashtbl.iter]), never because a substring happened to appear in a
   string literal or a comment the way a grep-based lint would.

   Rules (ids are stable; the config file decides scope and exemptions):

     D001  unordered [Hashtbl.iter]/[Hashtbl.fold] — hash-order iteration
           leaks Hashtbl internals into results; use [Lastcpu_sim.Detmap].
     D002  [Random.*] — the global generator is process-wide mutable state;
           use the engine-carried [Lastcpu_sim.Rng] streams.
     D003  wall-clock/environment reads ([Sys.time], [Unix.gettimeofday],
           [Sys.getenv], …) — real-world inputs break seeded replay.
     D004  [Marshal.*] and physical equality [==]/[!=] — representation-
           and address-dependent behaviour.
     D005  stdout/stderr printing from library modules — libraries must
           report through telemetry/trace, not ambient side channels.
     D006  direct [Station.submit]/[Station.try_submit] — device/bus code
           must route frames through [Sysbus.send] (which hands frames
           for another shard to a link port) or [Netsim.send] so
           cross-shard traffic is deferred to the quantum edge; a direct
           station submit bypasses the link ports and breaks the
           temporal-decoupling determinism contract. The blessed homes (the bus/net/device frameworks
           themselves and the centralized baseline) are exempted in
           lint.rules.
     D009  [Physmem.read_bytes]/[Physmem.write_bytes] in data-plane hot
           paths (lib/virtio, lib/flash, lib/net) — these are the copy
           path; hot code should move bytes through views
           ([Physmem.view], [Dma.map_single]) per DESIGN.md §14. The copy
           fallback itself (dma.ml) is the blessed home, exempted in
           lint.rules; any other use needs a suppression saying why the
           copy path is the right tool there.

     D010  unreferenced export — a [val] (or [external]) in an interface
           in scope that no other scanned source references: not its
           own implementation, only a caller elsewhere keeps an export
           alive. References are resolved through the sources'
           [module X = Lastcpu_y.Z] aliases, their [open]s and the
           interfaces' own module aliases ([Wire.Writer] is
           [Snapshot.W]); a module used whole ([include], a functor
           argument, a packed module) references all of its values.
           Cross-file, so it runs over every file the driver scans
           rather than one file at a time.

   Rules D007/D008 (shard-ownership escape and snapshot coverage) share
   this config and suppression machinery but are computed by the
   Typedtree pass in audit_core.ml, driven by audit_main over .cmt files.

   Findings are suppressible per (rule, file, enclosing top-level binding)
   via a checked-in suppressions file; a suppression that matches nothing
   is itself an error, so the baseline never rots. Because the lint and
   audit drivers read the same suppressions file, each passes the rule ids
   it owns as [known_rules] to {!apply_suppressions}: staleness is only
   judged for entries a driver is responsible for. *)

type finding = {
  rule : string;
  file : string;
  line : int;
  binding : string;  (* enclosing top-level binding, "" at toplevel *)
  message : string;
}

type rule_config = {
  id : string;
  scopes : string list;  (* root-relative dir prefixes the rule covers *)
  exempt : string list;  (* root-relative paths excluded from the rule *)
}

type suppression = {
  s_rule : string;
  s_path : string;
  s_binding : string;
  s_reason : string;
  mutable s_used : bool;
}

(* --- config parsing ------------------------------------------------------- *)

let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "")

(* A line is <IDS> <field>..., where <IDS> is one rule id or a
   comma-separated group (e.g. "D001,D004") that shares the line's
   scope/exempt fields — one rule_config per id either way. *)
let parse_rules_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then []
  else
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | ids :: fields ->
      let ids = split_commas ids in
      if ids = [] then
        failwith (Printf.sprintf "lint.rules:%d: missing rule id" lineno);
      let scopes = ref [] and exempt = ref [] in
      List.iter
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
            let k = String.sub f 0 i in
            let v = String.sub f (i + 1) (String.length f - i - 1) in
            if k = "scope" then scopes := split_commas v
            else if k = "exempt" then exempt := split_commas v
            else
              failwith
                (Printf.sprintf "lint.rules:%d: unknown field %S" lineno k)
          | None ->
            failwith
              (Printf.sprintf "lint.rules:%d: malformed field %S" lineno f))
        fields;
      List.map (fun id -> { id; scopes = !scopes; exempt = !exempt }) ids
    | [] -> []

let parse_rules text =
  let rules = ref [] in
  List.iteri
    (fun i line ->
      rules := List.rev_append (parse_rules_line (i + 1) line) !rules)
    (String.split_on_char '\n' text);
  List.rev !rules

(* Suppression line: <RULE> <path> <binding> -- <justification> *)
let parse_suppressions text =
  let out = ref [] in
  List.iteri
    (fun i line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let body, reason =
          (* split on the first " -- " *)
          let marker = " -- " in
          let rec find j =
            if j + String.length marker > String.length line then None
            else if String.sub line j (String.length marker) = marker then
              Some j
            else find (j + 1)
          in
          match find 0 with
          | Some j ->
            ( String.sub line 0 j,
              String.sub line
                (j + String.length marker)
                (String.length line - j - String.length marker) )
          | None -> (line, "")
        in
        match
          String.split_on_char ' ' (String.trim body)
          |> List.filter (( <> ) "")
        with
        | [ s_rule; s_path; s_binding ] ->
          if String.trim reason = "" then
            failwith
              (Printf.sprintf
                 "lint.suppressions:%d: missing justification (use ' -- why')"
                 (i + 1));
          out :=
            { s_rule; s_path; s_binding; s_reason = reason; s_used = false }
            :: !out
        | _ ->
          failwith
            (Printf.sprintf
               "lint.suppressions:%d: expected '<RULE> <path> <binding> -- \
                <why>'"
               (i + 1))
      end)
    (String.split_on_char '\n' text);
  List.rev !out

(* --- identifier classification -------------------------------------------- *)

(* Qualified path of an identifier, with a leading [Stdlib] dropped so
   [Stdlib.print_endline] and [print_endline] classify identically. *)
let ident_path lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | l -> l

let d003_idents =
  [
    [ "Sys"; "time" ];
    [ "Sys"; "getenv" ];
    [ "Sys"; "getenv_opt" ];
    [ "Unix"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "getenv" ];
    [ "Unix"; "localtime" ];
    [ "Unix"; "gmtime" ];
  ]

let d005_idents =
  [
    [ "print_string" ];
    [ "print_endline" ];
    [ "print_newline" ];
    [ "print_char" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "prerr_string" ];
    [ "prerr_endline" ];
    [ "prerr_newline" ];
    [ "Printf"; "printf" ];
    [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ];
    [ "Format"; "eprintf" ];
    [ "Format"; "print_string" ];
  ]

(* Which rules an identifier trips, with the message for each. *)
let classify path =
  match path with
  | [ "Hashtbl"; ("iter" | "fold") ] ->
    [
      ( "D001",
        Printf.sprintf
          "Hashtbl.%s iterates in hash order; use Lastcpu_sim.Detmap for a \
           deterministic order"
          (List.nth path 1) );
    ]
  | "Random" :: _ ->
    [
      ( "D002",
        Printf.sprintf
          "%s uses the ambient global generator; draw from an \
           engine-carried Lastcpu_sim.Rng stream"
          (String.concat "." path) );
    ]
  | _ when List.mem path d003_idents ->
    [
      ( "D003",
        Printf.sprintf
          "%s reads wall-clock/environment state, which breaks seeded \
           replay; thread configuration explicitly"
          (String.concat "." path) );
    ]
  | "Marshal" :: _ ->
    [
      ( "D004",
        Printf.sprintf
          "%s output depends on value representation; use the Wire/Codec \
           encoders"
          (String.concat "." path) );
    ]
  | [ ("==" | "!=") ] ->
    [
      ( "D004",
        Printf.sprintf
          "physical equality (%s) compares addresses, not contents; use = \
           / <> or an explicit key"
          (List.hd path) );
    ]
  | [ "Physmem"; (("read_bytes" | "write_bytes") as fn) ] ->
    [
      ( "D009",
        Printf.sprintf
          "Physmem.%s is the copy path; data-plane hot code should move \
           bytes through views (Physmem.view, Dma.map_single, \
           DESIGN #14) or justify the copy in lint.suppressions"
          fn );
    ]
  | [ "Station"; (("submit" | "try_submit") as fn) ] ->
    [
      ( "D006",
        Printf.sprintf
          "Station.%s submits work directly, bypassing Sysbus.send and \
           its link ports; route frames through Sysbus.send/Netsim.send \
           so cross-shard traffic defers to the quantum edge"
          fn );
    ]
  | _ when List.mem path d005_idents ->
    [
      ( "D005",
        Printf.sprintf
          "%s writes to an ambient channel from library code; report via \
           the telemetry registry or the run trace"
          (String.concat "." path) );
    ]
  | _ -> []

(* --- AST walk -------------------------------------------------------------- *)

let path_in_scope path scopes =
  List.exists
    (fun scope ->
      path = scope
      || String.length path > String.length scope
         && String.sub path 0 (String.length scope + 1) = scope ^ "/")
    scopes

let path_exempt path exempt = List.mem path exempt

let active_rules config ~path =
  List.filter
    (fun r -> path_in_scope path r.scopes && not (path_exempt path r.exempt))
    config

let scan_structure config ~path structure =
  let rules = active_rules config ~path in
  if rules = [] then []
  else begin
    let findings = ref [] in
    let current_binding = ref "" in
    let emit loc hits =
      List.iter
        (fun (rule, message) ->
          if List.exists (fun r -> r.id = rule) rules then
            findings :=
              {
                rule;
                file = path;
                line = loc.Location.loc_start.Lexing.pos_lnum;
                binding = !current_binding;
                message;
              }
              :: !findings)
        hits
    in
    let open Ast_iterator in
    let iter =
      {
        default_iterator with
        expr =
          (fun self e ->
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt; loc } ->
              emit loc (classify (ident_path txt))
            | _ -> ());
            default_iterator.expr self e);
        structure_item =
          (fun self item ->
            match item.Parsetree.pstr_desc with
            | Parsetree.Pstr_value (_, bindings) ->
              List.iter
                (fun vb ->
                  let saved = !current_binding in
                  (match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
                  | Parsetree.Ppat_var { txt; _ } -> current_binding := txt
                  | _ -> ());
                  self.value_binding self vb;
                  current_binding := saved)
                bindings
            | _ -> default_iterator.structure_item self item);
      }
    in
    iter.structure iter structure;
    List.rev !findings
  end

let scan_string config ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok (scan_structure config ~path structure)
  | exception exn ->
    Error (Printf.sprintf "%s: parse error: %s" path (Printexc.to_string exn))

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- D010: unreferenced exports -------------------------------------------- *)

(* What one source file says about module paths: the value identifiers it
   uses, its module aliases ([module X = P]), the modules it opens, and
   the modules it uses whole. Paths are flattened longidents. *)
type usage = {
  mutable values : string list list;
  mutable aliases : (string * string list) list;
  mutable opens : string list list;
  mutable wholes : string list list;
}

let usage_of_ast ast =
  let u = { values = []; aliases = []; opens = []; wholes = [] } in
  let open Ast_iterator in
  let open Parsetree in
  let alias name (me : module_expr) =
    match (name, me.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
      u.aliases <- (name, Longident.flatten txt) :: u.aliases;
      true
    | _ -> false
  in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
            u.values <- Longident.flatten txt :: u.values
          | Pexp_letmodule ({ txt; _ }, me, body) when alias txt me ->
            self.expr self body
          | _ -> default_iterator.expr self e);
      module_binding =
        (fun self mb ->
          if not (alias mb.pmb_name.txt mb.pmb_expr) then
            default_iterator.module_binding self mb);
      module_declaration =
        (fun self md ->
          match md.pmd_type.pmty_desc with
          | Pmty_alias { txt; _ } -> (
            match md.pmd_name.txt with
            | Some name ->
              u.aliases <- (name, Longident.flatten txt) :: u.aliases
            | None -> ())
          | _ -> default_iterator.module_declaration self md);
      open_declaration =
        (fun self od ->
          match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } ->
            u.opens <- Longident.flatten txt :: u.opens
          | _ -> default_iterator.open_declaration self od);
      open_description =
        (fun _ od -> u.opens <- Longident.flatten od.popen_expr.txt :: u.opens);
      module_expr =
        (fun self me ->
          match me.pmod_desc with
          | Pmod_ident { txt; _ } ->
            u.wholes <- Longident.flatten txt :: u.wholes
          | _ -> default_iterator.module_expr self me);
    }
  in
  (match ast with
  | `Ml structure -> iter.structure iter structure
  | `Mli signature -> iter.signature iter signature);
  u

(* The [val]s an interface declares, as paths below its own module
   ([["Driver"; "poll_used"]] for a val inside [module Driver : sig ... end]),
   each with its line. *)
let interface_values (signature : Parsetree.signature) =
  let open Parsetree in
  let out = ref [] in
  let rec items prefix sg = List.iter (item prefix) sg
  and item prefix si =
    match si.psig_desc with
    | Psig_value vd ->
      let line = vd.pval_loc.Location.loc_start.Lexing.pos_lnum in
      out := (prefix @ [ vd.pval_name.txt ], line) :: !out
    | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; _ } ->
      module_type (prefix @ [ name ]) pmd_type
    | Psig_recmodule mds ->
      List.iter
        (fun md ->
          match md.pmd_name.txt with
          | Some name -> module_type (prefix @ [ name ]) md.pmd_type
          | None -> ())
        mds
    | _ -> ()
  and module_type prefix mt =
    match mt.pmty_desc with Pmty_signature sg -> items prefix sg | _ -> ()
  in
  items [] signature;
  List.rev !out

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p, y :: l -> String.equal x y && is_prefix p l
  | _ :: _, [] -> false

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: l -> drop (n - 1) l

(* [sources] are (root-relative path, contents) for every scanned file,
   [.ml] and [.mli]. Every interface in D010's scope has each of its
   values checked for a reference from some file other than its own
   [.ml]/[.mli] pair. A file that does not parse is skipped here: the
   per-file scan reports it, and the compiler rejects it. *)
let unreferenced_exports config sources =
  let parsed =
    List.filter_map
      (fun (path, text) ->
        let lexbuf = Lexing.from_string text in
        Lexing.set_filename lexbuf path;
        match
          if Filename.check_suffix path ".mli" then `Mli (Parse.interface lexbuf)
          else `Ml (Parse.implementation lexbuf)
        with
        | ast -> Some (path, ast)
        | exception _ -> None)
      sources
  in
  let in_scope path =
    List.exists (fun r -> r.id = "D010") (active_rules config ~path)
  in
  let checked =
    List.filter_map
      (function
        | path, `Mli sg when in_scope path -> Some (path, interface_values sg)
        | _ -> None)
      parsed
  in
  let modules = List.map (fun (path, _) -> module_of_path path) checked in
  let usages = List.map (fun (path, ast) -> (path, usage_of_ast ast)) parsed in
  (* Drop library wrappers and other outer names down to the first checked
     module: [Lastcpu_sim.Metrics.pp] -> [Metrics.pp]; [] when the path
     names no checked module. *)
  let strip path =
    let rec go = function
      | m :: (_ :: _ as rest) when not (List.mem m modules) -> go rest
      | l -> l
    in
    match go path with m :: _ as l when List.mem m modules -> l | _ -> []
  in
  (* Interface-level aliases ([module Writer = Lastcpu_sim.Snapshot.W] in
     wire.mli), keyed by the path they are reached under. *)
  let interface_aliases =
    List.concat_map
      (fun (path, u) ->
        let m = module_of_path path in
        if Filename.check_suffix path ".mli" && List.mem m modules then
          List.map (fun (name, target) -> ([ m; name ], strip target)) u.aliases
        else [])
      usages
  in
  let rec canonical fuel path =
    match
      List.find_opt
        (fun (from, target) -> target <> [] && is_prefix from path)
        interface_aliases
    with
    | Some (from, target) when fuel > 0 ->
      canonical (fuel - 1) (target @ drop (List.length from) path)
    | _ -> path
  in
  (* Per file: every canonical value path it reaches, and every module it
     uses whole. *)
  let reached =
    List.map
      (fun (path, u) ->
        let rec expand fuel = function
          | head :: rest as p when fuel > 0 -> (
            match List.assoc_opt head u.aliases with
            | Some target when target <> [ head ] ->
              expand (fuel - 1) (target @ rest)
            | _ -> p)
          | p -> p
        in
        let opened = List.map (expand 8) u.opens in
        let resolve p =
          List.map
            (fun p -> canonical 8 (strip (expand 8 p)))
            (p :: List.map (fun o -> o @ p) opened)
        in
        let values = Hashtbl.create 256 in
        List.iter
          (fun p -> List.iter (fun v -> Hashtbl.replace values v ()) (resolve p))
          u.values;
        let wholes =
          List.filter (( <> ) []) (List.concat_map resolve u.wholes)
        in
        (Filename.remove_extension path, values, wholes))
      usages
  in
  List.concat_map
    (fun (mli, exports) ->
      let own = Filename.remove_extension mli in
      let m = module_of_path mli in
      List.filter_map
        (fun (sub, line) ->
          let key = m :: sub in
          let used =
            List.exists
              (fun (file, values, wholes) ->
                (not (String.equal file own))
                && (Hashtbl.mem values key
                   || List.exists (fun w -> is_prefix w key) wholes))
              reached
          in
          if used then None
          else
            Some
              {
                rule = "D010";
                file = mli;
                line;
                binding = String.concat "." sub;
                message =
                  Printf.sprintf
                    "%s is exported but no other source references it; \
                     delete it or drop it from the interface"
                    (String.concat "." key);
              })
        exports)
    checked

(* --- suppression application ----------------------------------------------- *)

(* [known_rules], when given, restricts the stale-entry check to
   suppressions whose rule id the calling driver owns: the lint and audit
   drivers share one suppressions file, and neither may declare the
   other's entries stale. *)
let apply_suppressions ?known_rules suppressions findings =
  let unsuppressed =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun s ->
              s.s_rule = f.rule && s.s_path = f.file
              && s.s_binding = f.binding)
            suppressions
        with
        | Some s ->
          s.s_used <- true;
          false
        | None -> true)
      findings
  in
  let owned s =
    match known_rules with
    | None -> true
    | Some rules -> List.mem s.s_rule rules
  in
  let stale = List.filter (fun s -> (not s.s_used) && owned s) suppressions in
  (unsuppressed, stale)

(* --- directory walk -------------------------------------------------------- *)

(* [.ml] and [.mli] files under [dir], sorted. *)
let rec source_files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let full = Filename.concat dir entry in
        if Sys.is_directory full then
          if entry = "_build" || entry.[0] = '.' then acc
          else acc @ source_files_under full
        else if
          Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
        then acc @ [ full ]
        else acc)
      [] entries

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s%s" f.file f.line f.rule f.message
    (if f.binding = "" then "" else Printf.sprintf " (in `%s')" f.binding)
