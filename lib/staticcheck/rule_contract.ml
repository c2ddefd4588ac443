(* seam-contract: cross-check each core's sites against its
   [Algo.sites] announcement, in both directions.

   - Unannounced site: a core reaches a site its table does not list —
     telemetry labels, fault plans, blame attribution and traces built
     on the announcement would silently miss it.
   - Missing site: the table announces a site the core never reaches —
     the runtime truthfulness test can never observe it.
   - Duplicate announcement: the table lists a site twice.

   The rule takes announcements at face value ([stm.ml] is the
   contract; the cores are the implementation under test). *)

let rule = "seam-contract"

let finding ~subject ~line message =
  Tm_analysis.Finding.v ~rule ~severity:Tm_analysis.Finding.Error ~subject
    ~location:(Tm_analysis.Finding.At_line line) message

let rec dups = function
  | [] -> []
  | x :: rest -> if List.mem x rest then x :: dups rest else dups rest

let check_core ~vocab ~contract ~helpers ~facade ~algo (core : Source.t) =
  match Seam.announced contract ~algo with
  | None ->
      [
        finding ~subject:facade ~line:1
          (Fmt.str "Algo.sites has no case covering %s" algo);
      ]
  | Some an ->
      let reached = Seam.sites ~helpers vocab core in
      List.map
        (fun s ->
          finding ~subject:facade ~line:an.Seam.an_line
            (Fmt.str "Algo.sites announces Obs.%s twice for %s" s algo))
        (dups an.Seam.an_sites)
      @ List.filter_map
          (fun (s : Seam.site) ->
            if List.mem s.s_name an.Seam.an_sites then None
            else
              Some
                (finding ~subject:core.path ~line:s.s_line
                   (Fmt.str
                      "reaches Obs.%s, which Algo.sites does not announce \
                       for %s"
                      s.s_name algo)))
          reached
      @ List.filter_map
          (fun name ->
            if List.exists (fun (s : Seam.site) -> s.s_name = name) reached
            then None
            else
              Some
                (finding ~subject:facade ~line:an.Seam.an_line
                   (Fmt.str
                      "Algo.sites announces Obs.%s for %s, but %s has no \
                       emission site for it"
                      name algo core.path)))
          an.Seam.an_sites

let check ~vocab ~contract ~helpers ~facade cores =
  List.concat_map
    (fun (algo, core) ->
      check_core ~vocab ~contract ~helpers ~facade ~algo core)
    cores
