(* The static-check driver: rule catalogue, repo-root discovery, file
   selection and the one-call [run] the CLI / tests / bench share.

   Everything is deterministic: files are discovered with [Sys.readdir]
   and sorted, findings carry root-relative paths and are sorted by
   [Finding.compare], so two runs over one tree produce byte-identical
   JSON. *)

type rule = { id : string; severity : Tm_analysis.Finding.severity; doc : string }

let parse_rule = "static-parse"

let rules =
  [
    {
      id = Rule_contract.rule;
      severity = Tm_analysis.Finding.Error;
      doc =
        "a core's sites disagree with its Algo.sites announcement";
    };
    {
      id = Rule_guard.rule;
      severity = Tm_analysis.Finding.Error;
      doc = "an Obs site is not dominated by the Atomic.get Obs.armed guard";
    };
    {
      id = Rule_purity.rule;
      severity = Tm_analysis.Finding.Error;
      doc = "a non-rollbackable effect inside an atomically body";
    };
    {
      id = Rule_leak.rule;
      severity = Tm_analysis.Finding.Error;
      doc = "a seam armed by a test without a paired unsubscribe/recover";
    };
    {
      id = Rule_unused.rule;
      severity = Tm_analysis.Finding.Warning;
      doc = "an interface val that no other file names (info: tests only)";
    };
    {
      id = parse_rule;
      severity = Tm_analysis.Finding.Error;
      doc = "a file in the rule's scope does not parse";
    };
  ]

let rule_ids = List.map (fun r -> r.id) rules

let pp_catalogue ppf () =
  List.iter
    (fun r ->
      Fmt.pf ppf "%-16s %-8s %s@." r.id
        (Tm_analysis.Finding.severity_label r.severity)
        r.doc)
    rules

(* --- root discovery --- *)

let looks_like_root dir =
  Sys.file_exists (Filename.concat dir (Filename.concat "lib" "stm"))
  && Sys.file_exists (Filename.concat dir "dune-project")

(* Walk upward from the working directory to the first directory
   containing dune-project and lib/stm — works from the repo root, from
   a subdirectory, and from dune's _build/default mirror. *)
let find_root () =
  let rec up dir n =
    if n > 12 then None
    else if looks_like_root dir then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (try Sys.getcwd () with Sys_error _ -> ".") 0

(* --- file selection --- *)

let files suffix root rel =
  let dir = Filename.concat root rel in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f suffix)
    |> List.sort String.compare
    |> List.map (fun f -> Filename.concat rel f)

let ml_files = files ".ml"

let lib_dirs root =
  List.filter
    (fun d -> Sys.is_directory (Filename.concat root d))
    (files "" root "lib")

let core_file_of_module m = String.lowercase_ascii m ^ ".ml"

type report = { findings : Tm_analysis.Finding.t list; files_scanned : int }

let run ?(rules = rule_ids) ~root () =
  let wants id = List.mem id rules in
  let findings = ref [] in
  let add fs = findings := fs @ !findings in
  let scanned = ref 0 in
  let parse_failure rel msg =
    if wants parse_rule then
      add
        [
          Tm_analysis.Finding.v ~rule:parse_rule
            ~severity:Tm_analysis.Finding.Error ~subject:rel msg;
        ]
  in
  (* Parse a root-relative file once; count it and report parse
     failures.  Memoized so rules sharing a file share the tree. *)
  let cache : (string, Source.t option) Hashtbl.t = Hashtbl.create 32 in
  let load rel =
    match Hashtbl.find_opt cache rel with
    | Some r -> r
    | None ->
        incr scanned;
        let r =
          match Source.load ~subject:rel (Filename.concat root rel) with
          | Ok src -> Some src
          | Error msg ->
              parse_failure rel msg;
              None
        in
        Hashtbl.add cache rel r;
        r
  in
  let facade_rel = "lib/stm/stm.ml" in
  let core_rel = "lib/stm/stm_core.ml" in
  if not (Sys.file_exists (Filename.concat root facade_rel)) then
    Error (Fmt.str "%s: no %s under this root (not a repo checkout?)" root facade_rel)
  else begin
    (* Seam rules: the facade, the substrate and the announced cores. *)
    (if wants Rule_contract.rule || wants Rule_guard.rule then
       match (load core_rel, load facade_rel) with
       | Some core_src, Some facade_src -> (
           match
             (Seam.vocab_of_core core_src, Seam.contract_of_facade facade_src)
           with
           | Ok vocab, Ok contract ->
               let facade = facade_src.Source.path in
               let cores =
                 List.filter_map
                   (fun (algo, m) ->
                     let rel =
                       Filename.concat "lib/stm" (core_file_of_module m)
                     in
                     if Sys.file_exists (Filename.concat root rel) then
                       Option.map (fun s -> (algo, s)) (load rel)
                     else begin
                       if wants Rule_contract.rule then
                         add
                           [
                             Tm_analysis.Finding.v ~rule:Rule_contract.rule
                               ~severity:Tm_analysis.Finding.Error
                               ~subject:facade
                               (Fmt.str
                                  "core_of dispatches %s to %s, but %s does \
                                   not exist"
                                  algo m rel);
                           ];
                       None
                     end)
                   contract.Seam.c_core_files
               in
               if wants Rule_contract.rule then
                 add
                   (Rule_contract.check ~vocab ~contract
                      ~helpers:(Seam.helper_sites vocab core_src)
                      ~facade cores);
               if wants Rule_guard.rule then
                 List.iter
                   (fun src -> add (Rule_guard.check src))
                   (core_src :: facade_src :: List.map snd cores)
           | (Error msg, _ | _, Error msg) -> parse_failure "lib/stm" msg)
       | _ -> ());
    (* Purity: transaction call sites across the tree. *)
    let txn_files =
      List.filter
        (fun f -> String.starts_with ~prefix:"txn_" (Filename.basename f))
        (ml_files root "lib/stm")
    in
    let user_files =
      ml_files root "test" @ ml_files root "bench" @ ml_files root "examples"
    in
    if wants Rule_purity.rule then
      List.iter
        (fun rel ->
          match load rel with
          | Some src -> add (Rule_purity.check src)
          | None -> ())
        (txn_files @ user_files);
    (* Armed leaks: test/bench/example lifecycles. *)
    if wants Rule_leak.rule then
      List.iter
        (fun rel ->
          match load rel with
          | Some src -> add (Rule_leak.check src)
          | None -> ())
        user_files;
    (* Dead surface: lib's interfaces against every implementation. *)
    if wants Rule_unused.rule then begin
      let dirs = lib_dirs root in
      let interfaces =
        List.concat_map (files ".mli" root) dirs
        |> List.filter_map (fun rel ->
               incr scanned;
               match Source.interface ~subject:rel (Filename.concat root rel) with
               | Ok intf -> Some intf
               | Error msg ->
                   parse_failure rel msg;
                   None)
      in
      let users =
        List.concat_map (ml_files root) (dirs @ [ "bin"; "perfbench" ])
        @ user_files
        |> List.filter_map load
      in
      add (Rule_unused.check ~interfaces ~users)
    end;
    let findings =
      List.sort_uniq Tm_analysis.Finding.compare !findings
      |> List.filter (fun (f : Tm_analysis.Finding.t) ->
             List.mem f.Tm_analysis.Finding.rule rules)
    in
    Ok { findings; files_scanned = !scanned }
  end
