(* lastcpu-audit: whole-program mutable-state audit over the Typedtree.

   Where lastcpu-lint (lint_core.ml) is a per-file syntactic pass on the
   Parsetree, this is a semantic pass over the compiler's *typed* tree,
   read back from the .cmt files `dune build @check` produces. Types are
   resolved, so the audit sees through aliases and module prefixes: a
   [Detmap.t] is recognised whether the source spells it
   [Lastcpu_sim.Detmap.t], an open, or a local alias — and the pass is
   whole-program: stateful types declared in one unit classify bindings in
   every other unit.

   The audit builds one inventory per compilation unit:

     - {e module-global mutable cells}: toplevel (or nested-module
       toplevel) bindings whose type reaches a mutable constructor
       (ref / array / bytes / Hashtbl / Queue / Stack / Buffer / Atomic /
       a record with mutable fields, transitively), or whose defining
       expression allocates mutable state outside any function body (the
       hidden-global closure pattern [let f = let tbl = ... in fun ...]);

     - {e stateful type declarations}: types whose values carry mutable
       state — a mutable record field, a field or manifest whose type is
       itself stateful (computed to a fixpoint across all units);

     - whether the unit {e participates in the snapshot protocol}: any
       reference to [Engine.register_snapshot] or to the [Snapshot]
       reader/writer modules.

   Two rules consume the inventory:

     D007  shard-ownership escape: a module-global mutable cell is
           process-wide state reachable from every closure that
           Temporal/Parallel.Pool runs on worker domains. Unless the cell
           is per-shard-instantiated (i.e. not module-global at all) or
           confined to quantum-edge rendezvous, it is a data race waiting
           for a second core — and a determinism leak even on one.

     D008  snapshot coverage: a unit that declares stateful types but
           never touches the snapshot protocol cannot round-trip its
           state through save/restore; a checkpoint taken over such a
           subsystem silently loses state. Participation is per-unit: a
           unit that registers a hook (or exposes Snapshot.W/R savers its
           owner wires in) is trusted to cover its own state — the T16
           kill–resume digest soak is the dynamic check of its depth.

   Both rules report through the same (rule, file, binding) finding shape
   as D001–D006, so lint.rules decides scope/exemptions and
   lint.suppressions carries per-site justified waivers with the same
   stale-entry policy. *)

type type_key = string * string
(* Normalised constructor key: (innermost module, type name), with
   wrapper prefixes stripped — [Lastcpu_sim__Detmap.t],
   [Lastcpu_sim.Detmap.t] and a local [Detmap.t] all key as
   ("Detmap", "t"); predefined types key as ("", "array"). *)

type type_decl = {
  td_module : string;  (* innermost enclosing module name *)
  td_name : string;
  td_binding : string;  (* suppression binding: "t" or "Pool.t" *)
  td_line : int;
  td_self_mutable : bool;  (* mutable field / builtin-mutable manifest *)
  td_dep_keys : type_key list;  (* field & manifest constructor keys *)
}

type cell = {
  c_binding : string;  (* "x" or "Pool.x" *)
  c_line : int;
  c_keys : type_key list;  (* constructor keys of the binding's type *)
  c_hidden_keys : type_key list;  (* types let-bound outside any fun *)
  c_alloc : string option;  (* mutable allocation outside any fun *)
}

type unit_inventory = {
  u_path : string;  (* root-relative source path *)
  u_module : string;  (* normalised unit module name *)
  u_decls : type_decl list;
  u_cells : cell list;
  u_snapshot_user : bool;
}

(* --- path normalisation ----------------------------------------------------- *)

(* Strip a dune wrapper prefix: "Lastcpu_sim__Detmap" -> "Detmap". *)
let strip_wrapper comp =
  let rec last_sep i =
    if i + 1 >= String.length comp then None
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      match last_sep (i + 2) with Some j -> Some j | None -> Some (i + 2)
    else last_sep (i + 1)
  in
  match last_sep 0 with
  | Some j -> String.sub comp j (String.length comp - j)
  | None -> comp

let path_components path =
  Path.name path |> String.split_on_char '.' |> List.map strip_wrapper

let key_of_components comps : type_key =
  match List.rev comps with
  | last :: prev :: _ -> (prev, last)
  | [ last ] -> ("", last)
  | [] -> ("", "")

let key_of_path p = key_of_components (path_components p)

let string_of_key (m, n) = if m = "" then n else m ^ "." ^ n

(* --- mutability classification ---------------------------------------------- *)

let builtin_mutable : type_key list =
  [
    ("", "array");
    ("", "bytes");
    ("", "floatarray");
    ("", "ref");
    ("Stdlib", "ref");
    ("Hashtbl", "t");
    ("Queue", "t");
    ("Stack", "t");
    ("Buffer", "t");
    ("Atomic", "t");
    ("Mutex", "t");
    ("Condition", "t");
    ("Weak", "t");
    ("Ephemeron", "t");
    (* Bigarray views: the zero-copy data plane the roadmap heads for. *)
    ("Array1", "t");
    ("Array2", "t");
    ("Array3", "t");
    ("Genarray", "t");
  ]

(* Functions that allocate a fresh mutable container; used only for the
   hidden-global pattern (allocation outside any fun body). Repo-local
   stateful creators are caught by the type-key route instead. *)
let mutable_creators : type_key list =
  [
    ("", "ref");
    ("Stdlib", "ref");
    ("Hashtbl", "create");
    ("Queue", "create");
    ("Stack", "create");
    ("Buffer", "create");
    ("Atomic", "make");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Array", "make");
    ("Array", "init");
    ("Array", "create_float");
    ("Array", "make_matrix");
    ("Weak", "create");
    ("Mutex", "create");
    ("Condition", "create");
  ]

(* Constructor keys reachable in a type without crossing an arrow: a
   function is not a cell, and state created per-call inside one is
   somebody's instance state, not a module global. *)
let rec collect_type_keys acc ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    List.fold_left collect_type_keys (key_of_path p :: acc) args
  | Types.Ttuple tys -> List.fold_left collect_type_keys acc tys
  | Types.Tpoly (ty, _) -> collect_type_keys acc ty
  | _ -> acc

let type_keys ty = collect_type_keys [] ty

(* --- inventory (one unit) ---------------------------------------------------- *)

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* Scan a toplevel binding's defining expression for mutable allocations
   that happen OUTSIDE any function body: those live once per process, no
   matter how innocent the binding's own (often arrow) type looks. *)
let hidden_state vb_expr =
  let alloc = ref None in
  let keys = ref [] in
  let open Tast_iterator in
  let expr self (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_function _ -> ()  (* per-call state: stop here *)
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _)
      when List.mem (key_of_path p) mutable_creators ->
      if !alloc = None then
        alloc := Some (Printf.sprintf "calls %s" (Path.name p));
      default_iterator.expr self e
    | Typedtree.Texp_record { fields; _ }
      when Array.exists
             (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
             fields ->
      if !alloc = None then alloc := Some "builds a record with mutable fields";
      default_iterator.expr self e
    | Typedtree.Texp_array (_ :: _) ->
      if !alloc = None then alloc := Some "builds an array";
      default_iterator.expr self e
    | Typedtree.Texp_let (_, vbs, _) ->
      List.iter
        (fun vb ->
          keys := collect_type_keys !keys vb.Typedtree.vb_expr.Typedtree.exp_type)
        vbs;
      default_iterator.expr self e
    | _ -> default_iterator.expr self e
  in
  let iter = { default_iterator with expr } in
  iter.expr iter vb_expr;
  (!alloc, !keys)

let decl_of_type ~modname (td : Typedtree.type_declaration) =
  let mutable_field (ld : Typedtree.label_declaration) =
    ld.Typedtree.ld_mutable = Asttypes.Mutable
  in
  let field_keys (ld : Typedtree.label_declaration) =
    type_keys ld.Typedtree.ld_type.Typedtree.ctyp_type
  in
  let self_mutable, dep_keys =
    match td.Typedtree.typ_kind with
    | Typedtree.Ttype_record lds ->
      ( List.exists mutable_field lds,
        List.concat_map field_keys lds )
    | Typedtree.Ttype_variant cds ->
      let of_args = function
        | Typedtree.Cstr_tuple cores ->
          (false, List.concat_map (fun c -> type_keys c.Typedtree.ctyp_type) cores)
        | Typedtree.Cstr_record lds ->
          (List.exists mutable_field lds, List.concat_map field_keys lds)
      in
      List.fold_left
        (fun (m, ks) cd ->
          let m', ks' = of_args cd.Typedtree.cd_args in
          (m || m', ks' @ ks))
        (false, []) cds
    | Typedtree.Ttype_abstract | Typedtree.Ttype_open -> (false, [])
  in
  let manifest_keys =
    match td.Typedtree.typ_manifest with
    | Some core -> type_keys core.Typedtree.ctyp_type
    | None -> []
  in
  let dep_keys = manifest_keys @ dep_keys in
  let self_mutable =
    self_mutable || List.exists (fun k -> List.mem k builtin_mutable) dep_keys
  in
  let name = Ident.name td.Typedtree.typ_id in
  {
    td_module = modname;
    td_name = name;
    td_binding = name;
    td_line = line_of td.Typedtree.typ_loc;
    td_self_mutable = self_mutable;
    td_dep_keys = dep_keys;
  }

let inventory ~path ~modname (structure : Typedtree.structure) =
  let decls = ref [] and cells = ref [] and snapshot_user = ref false in
  let rec scan_structure ~modname ~prefix (str : Typedtree.structure) =
    List.iter (scan_item ~modname ~prefix) str.Typedtree.str_items
  and scan_item ~modname ~prefix (item : Typedtree.structure_item) =
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          scan_idents vb.Typedtree.vb_expr;
          match vb.Typedtree.vb_pat.Typedtree.pat_desc with
          (* Tpat_alias is how `let x : ty = e` types: the constrained
             pattern aliased to the name. *)
          | Typedtree.Tpat_var (id, _) | Typedtree.Tpat_alias (_, id, _) ->
            let alloc, hidden_keys = hidden_state vb.Typedtree.vb_expr in
            cells :=
              {
                c_binding = prefix ^ Ident.name id;
                c_line = line_of vb.Typedtree.vb_loc;
                c_keys = type_keys vb.Typedtree.vb_expr.Typedtree.exp_type;
                c_hidden_keys = hidden_keys;
                c_alloc = alloc;
              }
              :: !cells
          | _ -> ())
        vbs
    | Typedtree.Tstr_type (_, tds) ->
      List.iter
        (fun td ->
          let d = decl_of_type ~modname td in
          decls :=
            { d with td_binding = prefix ^ d.td_binding } :: !decls)
        tds
    | Typedtree.Tstr_module mb -> scan_module ~prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (scan_module ~prefix) mbs
    | Typedtree.Tstr_eval (e, _) -> scan_idents e
    | _ -> ()
  and scan_module ~prefix (mb : Typedtree.module_binding) =
    let name =
      match mb.Typedtree.mb_name.Location.txt with
      | Some n -> n
      | None -> "_"
    in
    let rec unwrap (me : Typedtree.module_expr) =
      match me.Typedtree.mod_desc with
      | Typedtree.Tmod_structure str ->
        scan_structure ~modname:name ~prefix:(prefix ^ name ^ ".") str
      | Typedtree.Tmod_constraint (me, _, _, _) -> unwrap me
      | _ -> ()
    in
    unwrap mb.Typedtree.mb_expr
  and scan_idents e =
    (* Snapshot-protocol participation: any reference to the Snapshot
       reader/writer or to Engine.register_snapshot anywhere in the
       unit, including inside function bodies. *)
    let open Tast_iterator in
    let expr self (ex : Typedtree.expression) =
      (match ex.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) ->
        let comps = path_components p in
        if
          List.mem "Snapshot" comps
          || key_of_components comps = ("Engine", "register_snapshot")
        then snapshot_user := true
      | _ -> ());
      default_iterator.expr self ex
    in
    let iter = { default_iterator with expr } in
    iter.expr iter e
  in
  scan_structure ~modname ~prefix:"" structure;
  {
    u_path = path;
    u_module = modname;
    u_decls = List.rev !decls;
    u_cells = List.rev !cells;
    u_snapshot_user = !snapshot_user;
  }

(* --- whole-program fixpoint -------------------------------------------------- *)

(* The set of stateful type keys across every unit: seeded with the
   self-evidently mutable declarations, then closed over "a field or
   manifest of mine is stateful" until nothing new appears. *)
let stateful_types inventories =
  let table : (type_key, unit) Hashtbl.t = Hashtbl.create 64 in
  let decls = List.concat_map (fun u -> u.u_decls) inventories in
  List.iter
    (fun d ->
      if d.td_self_mutable then
        Hashtbl.replace table (d.td_module, d.td_name) ())
    decls;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let key = (d.td_module, d.td_name) in
        if
          (not (Hashtbl.mem table key))
          && List.exists (fun k -> Hashtbl.mem table k) d.td_dep_keys
        then begin
          Hashtbl.replace table key ();
          changed := true
        end)
      decls
  done;
  table

let key_is_stateful stateful k =
  List.mem k builtin_mutable || Hashtbl.mem stateful k

(* Why a cell classified mutable — for the finding message. *)
let cell_verdict stateful c =
  match List.find_opt (key_is_stateful stateful) c.c_keys with
  | Some k -> Some (Printf.sprintf "its type reaches mutable %s" (string_of_key k))
  | None -> (
    match c.c_alloc with
    | Some what -> Some (Printf.sprintf "its initialiser %s outside any function" what)
    | None -> (
      match List.find_opt (key_is_stateful stateful) c.c_hidden_keys with
      | Some k ->
        Some
          (Printf.sprintf
             "its initialiser captures a %s outside any function"
             (string_of_key k))
      | None -> None))

(* --- findings ---------------------------------------------------------------- *)

let audit_rules = [ "D007"; "D008" ]

let findings ~config inventories =
  let stateful = stateful_types inventories in
  let out = ref [] in
  let emit rule u line binding message =
    out :=
      { Lint_core.rule; file = u.u_path; line; binding; message } :: !out
  in
  List.iter
    (fun u ->
      let rules = Lint_core.active_rules config ~path:u.u_path in
      let active id = List.exists (fun r -> r.Lint_core.id = id) rules in
      if active "D007" then
        List.iter
          (fun c ->
            match cell_verdict stateful c with
            | None -> ()
            | Some why ->
              emit "D007" u c.c_line c.c_binding
                (Printf.sprintf
                   "module-global mutable cell `%s' (%s) is process-wide \
                    state reachable from every shard domain; instantiate it \
                    per shard (carry it in the subsystem record) or confine \
                    it to quantum-edge rendezvous"
                   c.c_binding why))
          u.u_cells;
      if active "D008" && not u.u_snapshot_user then
        List.iter
          (fun d ->
            if key_is_stateful stateful (d.td_module, d.td_name) then
              emit "D008" u d.td_line d.td_binding
                (Printf.sprintf
                   "stateful type `%s' lives in a unit with no snapshot \
                    participation (no Engine.register_snapshot or Snapshot.W/R \
                    use): its state cannot round-trip a checkpoint; register \
                    a hook, expose savers the owner wires in, or bless a \
                    waiver"
                   d.td_binding))
          u.u_decls)
    inventories;
  List.rev !out

(* --- .cmt ingestion ----------------------------------------------------------- *)

(* A unit read back from dune's @check output. Units with no source file
   (dune-generated wrapper alias modules) return None. *)
let inventory_of_cmt cmt_path =
  let infos = Cmt_format.read_cmt cmt_path in
  match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
  | Cmt_format.Implementation structure, Some src
    when Filename.check_suffix src ".ml" ->
    Some
      (inventory ~path:src
         ~modname:(strip_wrapper infos.Cmt_format.cmt_modname)
         structure)
  | _ -> None

let rec cmt_files_under dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let full = Filename.concat dir entry in
        if Sys.is_directory full then acc @ cmt_files_under full
        else if Filename.check_suffix entry ".cmt" then acc @ [ full ]
        else acc)
      [] entries

(* --- in-process typechecking (fixtures) ---------------------------------------- *)

(* Typecheck a standalone source string against the compiler's stdlib and
   inventory it. Fixtures stub repo modules locally (e.g. a local [module
   Engine]), which the suffix-matching classifier treats identically —
   that is a feature: the golden tests need no .cmt plumbing. *)
let typecheck_initialized = ref false

let inventory_of_string ~path ~modname source =
  if not !typecheck_initialized then begin
    Compmisc.init_path ();
    typecheck_initialized := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match
    let ast = Parse.implementation lexbuf in
    Typemod.type_structure env ast
  with
  | structure, _, _, _, _ -> Ok (inventory ~path ~modname structure)
  | exception exn ->
    Error
      (Printf.sprintf "%s: typecheck error: %s" path (Printexc.to_string exn))
