type t = int

type pfn = int

let pfn_of_addr a = a / Config.page_size

let addr_of_pfn pfn = pfn * Config.page_size

let node_of_pfn cfg pfn = pfn / cfg.Config.mem_pages_per_node

let node_of_addr cfg a = node_of_pfn cfg (pfn_of_addr a)

let first_pfn_of_node cfg node = node * cfg.Config.mem_pages_per_node

let local_index cfg pfn = pfn mod cfg.Config.mem_pages_per_node

let valid cfg a = a >= 0 && a < Config.total_pages cfg * Config.page_size

let aligned a k = k > 0 && a mod k = 0
